#include "workloads/reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.h"

namespace polymath::wl::ref {

void
fft(std::vector<std::complex<double>> *data)
{
    auto &a = *data;
    const size_t n = a.size();
    if (n == 0 || (n & (n - 1)) != 0)
        fatal("reference fft: size must be a power of two");
    // Bit-reversal permutation.
    for (size_t i = 1, j = 0; i < n; ++i) {
        size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(a[i], a[j]);
    }
    // Butterfly stages.
    for (size_t len = 2; len <= n; len <<= 1) {
        const double ang = -2.0 * std::acos(-1.0) / static_cast<double>(len);
        const std::complex<double> wlen(std::cos(ang), std::sin(ang));
        for (size_t i = 0; i < n; i += len) {
            std::complex<double> w(1.0, 0.0);
            for (size_t j = 0; j < len / 2; ++j) {
                const auto u = a[i + j];
                const auto v = a[i + j + len / 2] * w;
                a[i + j] = u + v;
                a[i + j + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
}

Tensor
fftTensor(const Tensor &signal)
{
    std::vector<std::complex<double>> data = signal.cplx();
    fft(&data);
    Tensor out(DType::Complex, signal.shape());
    out.cplx() = std::move(data);
    return out;
}

Tensor
dct8x8(const Tensor &img, const Tensor &c8)
{
    const int64_t h = img.shape().dim(0);
    const int64_t w = img.shape().dim(1);
    Tensor out(DType::Float, img.shape());
    for (int64_t bi = 0; bi < h / 8; ++bi) {
        for (int64_t bj = 0; bj < w / 8; ++bj) {
            double tmp[8][8];
            for (int64_t u = 0; u < 8; ++u) {
                for (int64_t j = 0; j < 8; ++j) {
                    double acc = 0.0;
                    for (int64_t i = 0; i < 8; ++i) {
                        acc += c8.at({u, i}) *
                               img.at({bi * 8 + i, bj * 8 + j});
                    }
                    tmp[u][j] = acc;
                }
            }
            for (int64_t u = 0; u < 8; ++u) {
                for (int64_t v = 0; v < 8; ++v) {
                    double acc = 0.0;
                    for (int64_t j = 0; j < 8; ++j)
                        acc += tmp[u][j] * c8.at({v, j});
                    out.at({bi * 8 + u, bj * 8 + v}) = acc;
                }
            }
        }
    }
    return out;
}

Tensor
kmeansStep(const Tensor &x, const Tensor &mu, Tensor *assign_out)
{
    const int64_t n = x.shape().dim(0);
    const int64_t d = x.shape().dim(1);
    const int64_t k = mu.shape().dim(0);

    std::vector<double> dist(static_cast<size_t>(n * k));
    std::vector<double> best(static_cast<size_t>(n),
                             std::numeric_limits<double>::infinity());
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t c = 0; c < k; ++c) {
            double acc = 0.0;
            for (int64_t j = 0; j < d; ++j) {
                const double diff = x.at({i, j}) - mu.at({c, j});
                acc += diff * diff;
            }
            dist[static_cast<size_t>(i * k + c)] = acc;
            best[static_cast<size_t>(i)] =
                std::min(best[static_cast<size_t>(i)], acc);
        }
    }
    Tensor next(DType::Float, mu.shape());
    std::vector<double> cnt(static_cast<size_t>(k), 0.0);
    Tensor assign(DType::Float, Shape{n});
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t c = 0; c < k; ++c) {
            if (dist[static_cast<size_t>(i * k + c)] !=
                best[static_cast<size_t>(i)]) {
                continue;
            }
            cnt[static_cast<size_t>(c)] += 1.0;
            for (int64_t j = 0; j < d; ++j)
                next.at({c, j}) += x.at({i, j});
            assign.at(i) += static_cast<double>(c);
        }
    }
    for (int64_t c = 0; c < k; ++c) {
        const double denom = std::max(cnt[static_cast<size_t>(c)], 1.0);
        for (int64_t j = 0; j < d; ++j)
            next.at({c, j}) /= denom;
    }
    if (assign_out)
        *assign_out = std::move(assign);
    return next;
}

void
lrmfStep(const Tensor &r, Tensor *w, Tensor *h, double lr)
{
    const int64_t users = r.shape().dim(0);
    const int64_t items = r.shape().dim(1);
    const int64_t rank = w->shape().dim(1);

    Tensor e(DType::Float, r.shape());
    for (int64_t u = 0; u < users; ++u) {
        for (int64_t i = 0; i < items; ++i) {
            double dot = 0.0;
            for (int64_t q = 0; q < rank; ++q)
                dot += w->at({u, q}) * h->at({q, i});
            e.at({u, i}) = r.at({u, i}) - dot;
        }
    }
    // w update uses old h; h update uses new w (program order).
    Tensor wn = *w;
    for (int64_t u = 0; u < users; ++u) {
        for (int64_t q = 0; q < rank; ++q) {
            double g = 0.0;
            for (int64_t i = 0; i < items; ++i)
                g += e.at({u, i}) * h->at({q, i});
            wn.at({u, q}) = w->at({u, q}) + lr * g;
        }
    }
    *w = std::move(wn);
    for (int64_t q = 0; q < rank; ++q) {
        for (int64_t i = 0; i < items; ++i) {
            double g = 0.0;
            for (int64_t u = 0; u < users; ++u)
                g += e.at({u, i}) * w->at({u, q});
            h->at({q, i}) += lr * g;
        }
    }
}

void
logregStep(const Tensor &x, const Tensor &y, Tensor *w, double lr)
{
    const int64_t n = x.shape().dim(0);
    const int64_t d = x.shape().dim(1);
    std::vector<double> p(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        double dot = 0.0;
        for (int64_t j = 0; j < d; ++j)
            dot += w->at(j) * x.at({i, j});
        p[static_cast<size_t>(i)] = 1.0 / (1.0 + std::exp(-dot));
    }
    Tensor wn = *w;
    for (int64_t j = 0; j < d; ++j) {
        double g = 0.0;
        for (int64_t i = 0; i < n; ++i)
            g += (p[static_cast<size_t>(i)] - y.at(i)) * x.at({i, j});
        wn.at(j) = w->at(j) - lr * g;
    }
    *w = std::move(wn);
}

Tensor
blackScholes(const Tensor &s, const Tensor &k, const Tensor &t, double rate,
             double vol)
{
    Tensor price(DType::Float, s.shape());
    for (int64_t i = 0; i < s.numel(); ++i) {
        const double sig_rt = vol * std::sqrt(t.at(i));
        const double d1 =
            (std::log(s.at(i) / k.at(i)) +
             (rate + vol * vol / 2.0) * t.at(i)) /
            sig_rt;
        const double d2 = d1 - sig_rt;
        const double nd1 = 0.5 * (1.0 + std::erf(d1 / std::sqrt(2.0)));
        const double nd2 = 0.5 * (1.0 + std::erf(d2 / std::sqrt(2.0)));
        price.at(i) =
            s.at(i) * nd1 - k.at(i) * std::exp(-rate * t.at(i)) * nd2;
    }
    return price;
}

Tensor
graphRelax(const Tensor &adj, const Tensor &dist, bool weighted)
{
    constexpr double kInf = 1e9;
    const int64_t n = dist.numel();
    Tensor next(DType::Float, dist.shape());
    for (int64_t v = 0; v < n; ++v) {
        double cand = kInf;
        for (int64_t u = 0; u < n; ++u) {
            const double w = adj.at({u, v});
            if (w > 0) {
                cand = std::min(cand,
                                dist.at(u) + (weighted ? w : 1.0));
            }
        }
        next.at(v) = std::min(cand, dist.at(v));
    }
    return next;
}

Tensor
bfsDistances(const Tensor &adj, int64_t source)
{
    constexpr double kInf = 1e9;
    const int64_t n = adj.shape().dim(0);
    Tensor dist(DType::Float, Shape{n});
    for (int64_t i = 0; i < n; ++i)
        dist.at(i) = kInf;
    dist.at(source) = 0.0;
    std::vector<int64_t> frontier = {source};
    while (!frontier.empty()) {
        std::vector<int64_t> next;
        for (int64_t u : frontier) {
            for (int64_t v = 0; v < n; ++v) {
                if (adj.at({u, v}) > 0 && dist.at(v) >= kInf) {
                    dist.at(v) = dist.at(u) + 1.0;
                    next.push_back(v);
                }
            }
        }
        frontier = std::move(next);
    }
    return dist;
}

Tensor
pagerankIter(const Tensor &adj, const Tensor &outdeg, const Tensor &rank,
             double damp)
{
    const int64_t n = rank.numel();
    Tensor next(DType::Float, rank.shape());
    for (int64_t v = 0; v < n; ++v) {
        double contrib = 0.0;
        for (int64_t u = 0; u < n; ++u) {
            if (adj.at({u, v}) > 0)
                contrib += rank.at(u) / outdeg.at(u);
        }
        next.at(v) =
            (1.0 - damp) / static_cast<double>(n) + damp * contrib;
    }
    return next;
}

namespace {

/** y = A x for row-major A [m][n]. */
std::vector<double>
matvec(const Tensor &a, const std::vector<double> &x)
{
    const int64_t m = a.shape().dim(0);
    const int64_t n = a.shape().dim(1);
    std::vector<double> y(static_cast<size_t>(m), 0.0);
    for (int64_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (int64_t j = 0; j < n; ++j)
            acc += a.at({i, j}) * x[static_cast<size_t>(j)];
        y[static_cast<size_t>(i)] = acc;
    }
    return y;
}

} // namespace

MpcState
mpcStep(const Tensor &pos, const Tensor &ctrl_mdl, const Tensor &pos_ref,
        const Tensor &p, const Tensor &hq_g, const Tensor &h,
        const Tensor &r_g, int64_t hstep)
{
    const int64_t b = ctrl_mdl.numel();
    const int64_t c = pos_ref.numel();

    // predict_trajectory
    std::vector<double> pose(static_cast<size_t>(pos.numel()));
    for (int64_t i = 0; i < pos.numel(); ++i)
        pose[static_cast<size_t>(i)] = pos.at(i);
    std::vector<double> ctrl(static_cast<size_t>(b));
    for (int64_t i = 0; i < b; ++i)
        ctrl[static_cast<size_t>(i)] = ctrl_mdl.at(i);
    auto pred = matvec(p, pose);
    const auto hterm = matvec(h, ctrl);
    for (int64_t i = 0; i < c; ++i)
        pred[static_cast<size_t>(i)] += hterm[static_cast<size_t>(i)];

    // compute_ctrl_grad
    std::vector<double> err(static_cast<size_t>(c));
    for (int64_t i = 0; i < c; ++i)
        err[static_cast<size_t>(i)] =
            pos_ref.at(i) - pred[static_cast<size_t>(i)];
    const auto p_g = matvec(hq_g, err);
    const auto h_g = matvec(r_g, ctrl);
    std::vector<double> g(static_cast<size_t>(b));
    for (int64_t i = 0; i < b; ++i)
        g[static_cast<size_t>(i)] =
            p_g[static_cast<size_t>(i)] + h_g[static_cast<size_t>(i)];

    // update_ctrl_model
    MpcState out{Tensor(DType::Float, Shape{b}),
                 Tensor(DType::Float, Shape{2})};
    for (int64_t j = 0; j < 2; ++j)
        out.ctrlSgnl.at(j) = ctrl[static_cast<size_t>(j * hstep)];
    out.ctrlMdl.at(b - 1) = 0.0;
    for (int64_t i = 0; i < b - 1; ++i) {
        out.ctrlMdl.at(i) =
            ctrl[static_cast<size_t>(i + 1)] - g[static_cast<size_t>(i + 1)];
    }
    return out;
}

Tensor
conv2d(const Tensor &x, const Tensor &w, int64_t stride)
{
    const int64_t c = x.shape().dim(0);
    const int64_t hi = x.shape().dim(1);
    const int64_t wi = x.shape().dim(2);
    const int64_t k = w.shape().dim(0);
    const int64_t r = w.shape().dim(2);
    const int64_t ho = (hi - r) / stride + 1;
    const int64_t wo = (wi - r) / stride + 1;
    Tensor y(DType::Float, Shape{k, ho, wo});
    for (int64_t f = 0; f < k; ++f) {
        for (int64_t i = 0; i < ho; ++i) {
            for (int64_t j = 0; j < wo; ++j) {
                double acc = 0.0;
                for (int64_t ch = 0; ch < c; ++ch) {
                    for (int64_t rr = 0; rr < r; ++rr) {
                        for (int64_t ss = 0; ss < r; ++ss) {
                            acc += x.at({ch, i * stride + rr,
                                         j * stride + ss}) *
                                   w.at({f, ch, rr, ss});
                        }
                    }
                }
                y.at({f, i, j}) = acc;
            }
        }
    }
    return y;
}

Tensor
dense(const Tensor &x, const Tensor &w, const Tensor &b)
{
    const int64_t o = w.shape().dim(0);
    const int64_t in = w.shape().dim(1);
    Tensor y(DType::Float, Shape{o});
    for (int64_t i = 0; i < o; ++i) {
        double acc = b.at(i);
        for (int64_t j = 0; j < in; ++j)
            acc += w.at({i, j}) * x.at(j);
        y.at(i) = acc;
    }
    return y;
}

int64_t
dctOptimalFlops(int64_t h, int64_t w)
{
    return h * w * 16 * 2;
}

int64_t
kmeansOptimalFlops(int64_t n, int64_t d, int64_t k)
{
    return n * k * d * 3 + n * k + k * d * 2;
}

int64_t
graphOptimalFlops(int64_t vertices, int64_t edges)
{
    return edges + vertices;
}

int64_t
mpcOptimalFlops(int64_t a, int64_t b, int64_t c)
{
    return 2 * (c * a + c * b + b * c + b * b) + c + 3 * b;
}

} // namespace polymath::wl::ref
