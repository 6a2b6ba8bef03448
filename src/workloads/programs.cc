#include "workloads/programs.h"

#include <cmath>
#include <vector>

#include "core/error.h"
#include "core/strings.h"

namespace polymath::wl {

namespace {

/** log2 for exact powers of two. */
int
log2Exact(int64_t n)
{
    int bits = 0;
    while ((int64_t{1} << bits) < n)
        ++bits;
    if ((int64_t{1} << bits) != n)
        fatal("FFT size must be a power of two");
    return bits;
}

/** Bit-reversal gather expression over index i with @p bits bits. */
std::string
bitReverseExpr(int bits)
{
    std::string expr;
    for (int b = 0; b < bits; ++b) {
        if (b)
            expr += " + ";
        expr += format("((i/%lld)%%2)*%lld",
                       static_cast<long long>(int64_t{1} << b),
                       static_cast<long long>(int64_t{1}
                                              << (bits - 1 - b)));
    }
    return expr;
}

/** Components shared by every FFT instance: bit-reversal (per size) and
 *  the stage butterfly (size-generic, stride bound per instantiation). */
std::string
fftComponents(int64_t n)
{
    const int bits = log2Exact(n);
    std::string out;
    out += format("bit_reverse_%lld(input complex x[n], "
                  "output complex y[n]) {\n",
                  static_cast<long long>(n));
    out += "    index i[0:n-1];\n";
    out += "    y[i] = x[" + bitReverseExpr(bits) + "];\n";
    out += "}\n";
    out += R"(fft_stage(input complex x[n], param complex tw[h],
          param int s, output complex y[n]) {
    index k[0:h-1];
    y[(k/s)*(2*s) + (k%s)] = x[(k/s)*(2*s) + (k%s)]
        + tw[(k%s)*(h/s)] * x[(k/s)*(2*s) + (k%s) + s];
    y[(k/s)*(2*s) + (k%s) + s] = x[(k/s)*(2*s) + (k%s)]
        - tw[(k%s)*(h/s)] * x[(k/s)*(2*s) + (k%s) + s];
}
)";
    return out;
}

/** Stage-cascade statements: bit-reverse then log2(n) butterflies.
 *  Reads @p in_name, leaves the spectrum in t<stages>. Returns the body
 *  text; @p decl receives the intermediate declarations. */
std::string
fftCascade(int64_t n, const std::string &in_name, const std::string &out_name)
{
    const int bits = log2Exact(n);
    std::string body;
    body += "    complex ";
    for (int s = 0; s < bits; ++s)
        body += format("t%d[%lld], ", s, static_cast<long long>(n));
    body.erase(body.size() - 2);
    body += ";\n";
    body += format("    DSP: bit_reverse_%lld(%s, t0);\n",
                   static_cast<long long>(n), in_name.c_str());
    for (int s = 0; s < bits; ++s) {
        const std::string dst =
            s + 1 == bits ? out_name : format("t%d", s + 1);
        body += format("    DSP: fft_stage(t%d, tw, %lld, %s);\n", s,
                       static_cast<long long>(int64_t{1} << s),
                       dst.c_str());
    }
    return body;
}

} // namespace

std::string
mobileRobotProgram()
{
    // Fig. 4 of the paper, with the control signal read from the previous
    // model (ctrl_prev) rather than the not-yet-written output.
    return R"(predict_trajectory(input float pos[a], input float ctrl_mdl[b],
                   param float P[c][a], param float H[c][b],
                   output float pred[c]) {
    index i[0:a-1], j[0:b-1], k[0:c-1];
    pred[k] = sum[i](P[k][i]*pos[i]);
    pred[k] = pred[k] + sum[j](H[k][j]*ctrl_mdl[j]);
}
mvmul(input float A[m][n], input float B[n], output float C[m]) {
    index i[0:n-1], j[0:m-1];
    C[j] = sum[i](A[j][i]*B[i]);
}
compute_ctrl_grad(input float pos_pred[c], input float ctrl_mdl[b],
                  param float pos_ref[c], param float HQ_g[b][c],
                  param float R_g[b][b], output float g[b]) {
    index i[0:b-1], j[0:c-1];
    float P_g[b], H_g[b], err[c];
    err[j] = pos_ref[j] - pos_pred[j];
    mvmul(HQ_g, err, P_g);
    mvmul(R_g, ctrl_mdl, H_g);
    g[i] = P_g[i] + H_g[i];
}
update_ctrl_model(input float ctrl_prev[b], input float g[b],
                  output float ctrl_mdl[b], output float ctrl_sgnl[s],
                  param int h) {
    index i[0:b-2], j[0:s-1];
    ctrl_sgnl[j] = ctrl_prev[h*j];
    ctrl_mdl[b-1] = 0;
    ctrl_mdl[i] = ctrl_prev[(i+1)] - g[(i+1)];
}
main(input float pos[3], state float ctrl_mdl[20],
     param float pos_ref[30], param float P[30][3],
     param float HQ_g[20][30], param float H[30][20],
     param float R_g[20][20], output float ctrl_sgnl[2]) {
    float pos_pred[30], g[20];
    RBT: predict_trajectory(pos, ctrl_mdl, P, H, pos_pred);
    RBT: compute_ctrl_grad(pos_pred, ctrl_mdl, pos_ref, HQ_g, R_g, g);
    RBT: update_ctrl_model(ctrl_mdl, g, ctrl_mdl, ctrl_sgnl, 10);
}
)";
}

std::string
hexacopterProgram()
{
    // Six-rotor attitude/altitude MPC in condensed-horizon form: the
    // prediction matrices fold the 32-step horizon (state 12, controls 6).
    return R"(mvmul(input float A[m][n], input float B[n], output float C[m]) {
    index i[0:n-1], j[0:m-1];
    C[j] = sum[i](A[j][i]*B[i]);
}
rotor_mix(input float u[m], param float M[f][m], output float wrench[f]) {
    index i[0:m-1], j[0:f-1];
    wrench[j] = sum[i](M[j][i]*u[i]);
}
attitude_kinematics(input float ang[3], input float rates[3],
                    output float dang[3]) {
    dang[0] = rates[0] + sin(ang[0])*tan(ang[1])*rates[1]
            + cos(ang[0])*tan(ang[1])*rates[2];
    dang[1] = cos(ang[0])*rates[1] - sin(ang[0])*rates[2];
    dang[2] = sin(ang[0])/cos(ang[1])*rates[1]
            + cos(ang[0])/cos(ang[1])*rates[2];
}
body_accel(input float ang[3], input float thrust,
           param float mass, output float acc[3]) {
    acc[0] = (cos(ang[0])*sin(ang[1])*cos(ang[2])
            + sin(ang[0])*sin(ang[2])) * thrust / mass;
    acc[1] = (cos(ang[0])*sin(ang[1])*sin(ang[2])
            - sin(ang[0])*cos(ang[2])) * thrust / mass;
    acc[2] = cos(ang[0])*cos(ang[1]) * thrust / mass - 9.81;
}
integrate_state(input float x[s], input float dx[s], param float dt,
                output float xn[s]) {
    index i[0:s-1];
    xn[i] = x[i] + dt*dx[i];
}
assemble_deriv(input float vel[3], input float acc[3], input float dang[3],
               input float wrench[f], param float J_inv[3][3],
               output float dx[s]) {
    index i[0:2];
    float dom[3], tau[3];
    tau[i] = wrench[i+3];
    mvmul(J_inv, tau, dom);
    dx[i] = vel[i];
    dx[i+3] = acc[i];
    dx[i+6] = dang[i];
    dx[i+9] = dom[i];
}
predict_horizon(input float x0[s], input float useq[cu],
                param float A[ph][s], param float B[ph][cu],
                output float pred[ph]) {
    index k[0:ph-1];
    float xa[ph], xb[ph];
    mvmul(A, x0, xa);
    mvmul(B, useq, xb);
    pred[k] = xa[k] + xb[k];
}
horizon_error(input float pred[ph], param float ref[ph],
              param float Q[ph], output float err[ph]) {
    index k[0:ph-1];
    err[k] = Q[k]*(pred[k] - ref[k]);
}
ctrl_gradient(input float err[ph], input float useq[cu],
              param float Bt[cu][ph], param float Rg[cu][cu],
              output float grad[cu]) {
    index i[0:cu-1];
    float ge[cu], gu[cu];
    mvmul(Bt, err, ge);
    mvmul(Rg, useq, gu);
    grad[i] = ge[i] + gu[i];
}
update_sequence(input float useq[cu], input float grad[cu],
                param float lr, output float unew[cu],
                output float u_now[m], param int T) {
    index i[0:cu-1], j[0:m-1];
    unew[i] = useq[i] - lr*grad[i];
    u_now[j] = unew[j*T];
}
main(input float meas[12], state float useq[192],
     param float mix[6][6], param float J_inv[3][3],
     param float A[384][12], param float B[384][192],
     param float ref[384], param float Q[384],
     param float Bt[192][384], param float Rg[192][192],
     param float mass, param float dt, param float lr,
     output float rotor_cmd[6]) {
    index i[0:2];
    float ang[3], rates[3], vel[3], u0[6];
    float wrench[6], acc[3], dang[3], dx[12], xnext[12];
    float pred[384], err[384], grad[192];
    float thrust;
    ang[i] = meas[i+6];
    rates[i] = meas[i+9];
    vel[i] = meas[i+3];
    u0[i] = useq[i*32];
    u0[i+3] = useq[(i+3)*32];
    RBT: rotor_mix(u0, mix, wrench);
    thrust = wrench[0*1];
    RBT: attitude_kinematics(ang, rates, dang);
    RBT: body_accel(ang, thrust, mass, acc);
    RBT: assemble_deriv(vel, acc, dang, wrench, J_inv, dx);
    RBT: integrate_state(meas, dx, dt, xnext);
    RBT: predict_horizon(xnext, useq, A, B, pred);
    RBT: horizon_error(pred, ref, Q, err);
    RBT: ctrl_gradient(err, useq, Bt, Rg, grad);
    RBT: update_sequence(useq, grad, lr, useq, rotor_cmd, 32);
}
)";
}

std::string
bfsProgram(int64_t n)
{
    return format(R"(reduction minplus(a, b) = a < b ? a : b;
process(input float adj[n][n], input float dist[n], output float cand[n]) {
    index u[0:n-1], v[0:n-1];
    cand[v] = minplus[u](adj[u][v] > 0 ? dist[u] + 1 : 1000000000);
}
apply(input float cand[n], input float dist_in[n],
      output float dist_out[n]) {
    index v[0:n-1];
    dist_out[v] = cand[v] < dist_in[v] ? cand[v] : dist_in[v];
}
main(input float adj[%lld][%lld], state float dist[%lld]) {
    float cand[%lld];
    GA: process(adj, dist, cand);
    GA: apply(cand, dist, dist);
}
)",
                  static_cast<long long>(n), static_cast<long long>(n),
                  static_cast<long long>(n), static_cast<long long>(n));
}

std::string
sssPProgram(int64_t n)
{
    return format(R"(reduction minplus(a, b) = a < b ? a : b;
process(input float adj[n][n], input float dist[n], output float cand[n]) {
    index u[0:n-1], v[0:n-1];
    cand[v] = minplus[u](adj[u][v] > 0 ? dist[u] + adj[u][v] : 1000000000);
}
apply(input float cand[n], input float dist_in[n],
      output float dist_out[n]) {
    index v[0:n-1];
    dist_out[v] = cand[v] < dist_in[v] ? cand[v] : dist_in[v];
}
main(input float adj[%lld][%lld], state float dist[%lld]) {
    float cand[%lld];
    GA: process(adj, dist, cand);
    GA: apply(cand, dist, dist);
}
)",
                  static_cast<long long>(n), static_cast<long long>(n),
                  static_cast<long long>(n), static_cast<long long>(n));
}

std::string
pagerankProgram(int64_t n)
{
    return format(R"(pr_iter(input float adj[n][n], state float outdeg[n],
        state float rank[n], param float damp) {
    index u[0:n-1], v[0:n-1];
    float contrib[n];
    contrib[v] = sum[u](adj[u][v] > 0 ? rank[u]/outdeg[u] : 0);
    rank[v] = (1 - damp)/n + damp*contrib[v];
}
main(input float adj[%lld][%lld], state float outdeg[%lld],
     state float rank[%lld], param float damp) {
    GA: pr_iter(adj, outdeg, rank, damp);
}
)",
                  static_cast<long long>(n), static_cast<long long>(n),
                  static_cast<long long>(n), static_cast<long long>(n));
}

std::string
lrmfProgram(int64_t users, int64_t items, int64_t rank)
{
    return format(R"(lrmf_step(input float r[U][I], state float w[U][K],
          state float h[K][I], param float lr) {
    index u[0:U-1], i[0:I-1], k[0:K-1];
    float e[U][I];
    e[u][i] = r[u][i] - sum[k](w[u][k]*h[k][i]);
    w[u][k] = w[u][k] + lr*sum[i](e[u][i]*h[k][i]);
    h[k][i] = h[k][i] + lr*sum[u](e[u][i]*w[u][k]);
}
main(input float r[%lld][%lld], state float w[%lld][%lld],
     state float h[%lld][%lld], param float lr) {
    DA: lrmf_step(r, w, h, lr);
}
)",
                  static_cast<long long>(users),
                  static_cast<long long>(items),
                  static_cast<long long>(users),
                  static_cast<long long>(rank),
                  static_cast<long long>(rank),
                  static_cast<long long>(items));
}

std::string
kmeansProgram(int64_t points, int64_t dims, int64_t clusters)
{
    return format(R"(kmeans_step(input float x[N][D], state float mu[K][D],
            output float assign[N]) {
    index n[0:N-1], k[0:K-1], d[0:D-1];
    float dist[N][K], best[N], memb[N][K], cnt[K];
    dist[n][k] = sum[d]((x[n][d]-mu[k][d])*(x[n][d]-mu[k][d]));
    best[n] = min[k](dist[n][k]);
    memb[n][k] = dist[n][k] == best[n] ? 1 : 0;
    cnt[k] = sum[n](memb[n][k]);
    mu[k][d] = sum[n](memb[n][k]*x[n][d]) / max(cnt[k], 1);
    assign[n] = sum[k](memb[n][k]*k);
}
main(input float x[%lld][%lld], state float mu[%lld][%lld],
     output float assign[%lld]) {
    DA: kmeans_step(x, mu, assign);
}
)",
                  static_cast<long long>(points),
                  static_cast<long long>(dims),
                  static_cast<long long>(clusters),
                  static_cast<long long>(dims),
                  static_cast<long long>(points));
}

std::string
logregProgram(int64_t samples, int64_t features)
{
    return format(R"(logreg_step(input float x[N][D], input float y[N],
            state float w[D], param float lr) {
    index n[0:N-1], d[0:D-1], j[0:D-1];
    float p[N], g[D];
    p[n] = sigmoid(sum[d](w[d]*x[n][d]));
    g[j] = sum[n]((p[n]-y[n])*x[n][j]);
    w[j] = w[j] - lr*g[j];
}
main(input float x[%lld][%lld], input float y[%lld],
     state float w[%lld], param float lr) {
    DA: logreg_step(x, y, w, lr);
}
)",
                  static_cast<long long>(samples),
                  static_cast<long long>(features),
                  static_cast<long long>(samples),
                  static_cast<long long>(features));
}

std::string
blackScholesProgram(int64_t options)
{
    return format(R"(black_scholes(input float s[N], input float strike[N],
              input float t[N], param float rate, param float vol,
              output float price[N]) {
    index i[0:N-1];
    float d1[N], d2[N], nd1[N], nd2[N];
    d1[i] = (ln(s[i]/strike[i]) + (rate + vol*vol/2)*t[i])
          / (vol*sqrt(t[i]));
    d2[i] = d1[i] - vol*sqrt(t[i]);
    nd1[i] = (1 + erf(d1[i]/sqrt(2)))/2;
    nd2[i] = (1 + erf(d2[i]/sqrt(2)))/2;
    price[i] = s[i]*nd1[i] - strike[i]*exp(-rate*t[i])*nd2[i];
}
main(input float s[%lld], input float strike[%lld], input float t[%lld],
     param float rate, param float vol, output float price[%lld]) {
    DA: black_scholes(s, strike, t, rate, vol, price);
}
)",
                  static_cast<long long>(options),
                  static_cast<long long>(options),
                  static_cast<long long>(options),
                  static_cast<long long>(options));
}

std::string
fftProgram(int64_t n)
{
    std::string out = fftComponents(n);
    out += format("main(input complex x[%lld], param complex tw[%lld],\n"
                  "     output complex y[%lld]) {\n",
                  static_cast<long long>(n), static_cast<long long>(n / 2),
                  static_cast<long long>(n));
    out += fftCascade(n, "x", "y");
    out += "}\n";
    return out;
}

std::string
dctProgram(int64_t height, int64_t width)
{
    return format(R"(dct8x8(input float img[H][W], param float C[8][8],
       output float out[H][W]) {
    index bi[0:H/8-1], bj[0:W/8-1], u[0:7], v[0:7], i[0:7], j[0:7];
    float tmp[H][W];
    tmp[bi*8+u][bj*8+j] = sum[i](C[u][i] * img[bi*8+i][bj*8+j]);
    out[bi*8+u][bj*8+v] = sum[j](tmp[bi*8+u][bj*8+j] * C[v][j]);
}
main(input float img[%lld][%lld], param float C[8][8],
     output float out[%lld][%lld]) {
    DSP: dct8x8(img, C, out);
}
)",
                  static_cast<long long>(height),
                  static_cast<long long>(width),
                  static_cast<long long>(height),
                  static_cast<long long>(width));
}

// ---------------------------------------------------------------------------
// DNN program generation
// ---------------------------------------------------------------------------

namespace {

/** The layer-level component library shared by both CNNs. Inputs are
 *  assumed pre-padded via the `pad` component (its partial write leaves a
 *  zero border). */
const char *const kDnnComponents = R"(pad(input float x[C][H][W], param int p, output float y[C][HP][WP]) {
    index c[0:C-1], i[0:H-1], j[0:W-1];
    y[c][i+p][j+p] = x[c][i][j];
}
conv2d(input float x[C][HI][WI], param float wgt[K][C][R][S],
       param int stride, output float y[K][HO][WO]) {
    index k[0:K-1], i[0:HO-1], j[0:WO-1], c[0:C-1], r[0:R-1], q[0:S-1];
    y[k][i][j] = sum[c][r][q](x[c][i*stride+r][j*stride+q]
                              * wgt[k][c][r][q]);
}
conv2d_dw(input float x[C][HI][WI], param float wgt[C][R][S],
          param int stride, output float y[C][HO][WO]) {
    index c[0:C-1], i[0:HO-1], j[0:WO-1], r[0:R-1], q[0:S-1];
    y[c][i][j] = sum[r][q](x[c][i*stride+r][j*stride+q] * wgt[c][r][q]);
}
batchnorm(input float x[C][H][W], param float gamma[C], param float beta[C],
          output float y[C][H][W]) {
    index c[0:C-1], i[0:H-1], j[0:W-1];
    y[c][i][j] = x[c][i][j]*gamma[c] + beta[c];
}
relu_layer(input float x[C][H][W], output float y[C][H][W]) {
    index c[0:C-1], i[0:H-1], j[0:W-1];
    y[c][i][j] = relu(x[c][i][j]);
}
add_layer(input float a[C][H][W], input float b[C][H][W],
          output float y[C][H][W]) {
    index c[0:C-1], i[0:H-1], j[0:W-1];
    y[c][i][j] = a[c][i][j] + b[c][i][j];
}
maxpool(input float x[C][HI][WI], param int stride, param int k,
        output float y[C][HO][WO]) {
    index c[0:C-1], i[0:HO-1], j[0:WO-1], r[0:k-1], q[0:k-1];
    y[c][i][j] = max[r][q](x[c][i*stride+r][j*stride+q]);
}
avgpool(input float x[C][H][W], output float y[C]) {
    index c[0:C-1], i[0:H-1], j[0:W-1];
    y[c] = sum[i][j](x[c][i][j]) / (H*W);
}
dense(input float x[I], param float w[O][I], param float b[O],
      output float y[O]) {
    index o[0:O-1], i[0:I-1];
    y[o] = b[o] + sum[i](w[o][i]*x[i]);
}
)";

/** Emits a CNN main from a layer recipe, tracking shapes. */
class DnnEmitter
{
  public:
    DnnEmitter(int64_t channels, int64_t hw)
        : c_(channels), h_(hw), w_(hw), cur_("img")
    {
        decls_.push_back(
            format("input float img[%lld][%lld][%lld]",
                   static_cast<long long>(channels),
                   static_cast<long long>(hw),
                   static_cast<long long>(hw)));
    }

    /** Pads the current tensor by @p p. */
    void pad(int64_t p)
    {
        const std::string out = temp(c_, h_ + 2 * p, w_ + 2 * p);
        body_ += format("    DL: pad(%s, %lld, %s);\n", cur_.c_str(),
                        static_cast<long long>(p), out.c_str());
        cur_ = out;
        h_ += 2 * p;
        w_ += 2 * p;
    }

    void conv(int64_t k, int64_t r, int64_t stride, int64_t p)
    {
        if (p > 0)
            pad(p);
        const int64_t ho = (h_ - r) / stride + 1;
        const int64_t wo = (w_ - r) / stride + 1;
        const std::string wname = param(
            format("w%d[%lld][%lld][%lld][%lld]", nParam_,
                   static_cast<long long>(k), static_cast<long long>(c_),
                   static_cast<long long>(r), static_cast<long long>(r)));
        const std::string out = temp(k, ho, wo);
        body_ += format("    DL: conv2d(%s, %s, %lld, %s);\n", cur_.c_str(),
                        wname.c_str(), static_cast<long long>(stride),
                        out.c_str());
        cur_ = out;
        c_ = k;
        h_ = ho;
        w_ = wo;
    }

    void convDw(int64_t r, int64_t stride, int64_t p)
    {
        if (p > 0)
            pad(p);
        const int64_t ho = (h_ - r) / stride + 1;
        const int64_t wo = (w_ - r) / stride + 1;
        const std::string wname = param(
            format("w%d[%lld][%lld][%lld]", nParam_,
                   static_cast<long long>(c_), static_cast<long long>(r),
                   static_cast<long long>(r)));
        const std::string out = temp(c_, ho, wo);
        body_ += format("    DL: conv2d_dw(%s, %s, %lld, %s);\n",
                        cur_.c_str(), wname.c_str(),
                        static_cast<long long>(stride), out.c_str());
        cur_ = out;
        h_ = ho;
        w_ = wo;
    }

    void bnRelu(bool with_relu = true)
    {
        const std::string g = param(format(
            "g%d[%lld]", nParam_, static_cast<long long>(c_)));
        const std::string be = param(format(
            "be%d[%lld]", nParam_, static_cast<long long>(c_)));
        std::string out = temp(c_, h_, w_);
        body_ += format("    DL: batchnorm(%s, %s, %s, %s);\n",
                        cur_.c_str(), g.c_str(), be.c_str(), out.c_str());
        cur_ = out;
        if (with_relu) {
            out = temp(c_, h_, w_);
            body_ += format("    DL: relu_layer(%s, %s);\n", cur_.c_str(),
                            out.c_str());
            cur_ = out;
        }
    }

    void maxpool(int64_t k, int64_t stride, int64_t p)
    {
        if (p > 0)
            pad(p);
        const int64_t ho = (h_ - k) / stride + 1;
        const std::string out = temp(c_, ho, ho);
        body_ += format("    DL: maxpool(%s, %lld, %lld, %s);\n",
                        cur_.c_str(), static_cast<long long>(stride),
                        static_cast<long long>(k), out.c_str());
        cur_ = out;
        h_ = ho;
        w_ = ho;
    }

    /** Emits a conv on an arbitrary saved tensor (residual shortcuts)
     *  without disturbing the main path; returns the output name. */
    std::string convOn(const std::string &src, int64_t c, int64_t h,
                       int64_t k, int64_t r, int64_t stride)
    {
        const int64_t ho = (h - r) / stride + 1;
        const std::string wname = param(
            format("w%d[%lld][%lld][%lld][%lld]", nParam_,
                   static_cast<long long>(k), static_cast<long long>(c),
                   static_cast<long long>(r), static_cast<long long>(r)));
        const std::string out = temp(k, ho, ho);
        body_ += format("    DL: conv2d(%s, %s, %lld, %s);\n", src.c_str(),
                        wname.c_str(), static_cast<long long>(stride),
                        out.c_str());
        return out;
    }

    void residualAdd(const std::string &other)
    {
        const std::string out = temp(c_, h_, w_);
        body_ += format("    DL: add_layer(%s, %s, %s);\n", cur_.c_str(),
                        other.c_str(), out.c_str());
        cur_ = out;
    }

    void relu()
    {
        const std::string out = temp(c_, h_, w_);
        body_ += format("    DL: relu_layer(%s, %s);\n", cur_.c_str(),
                        out.c_str());
        cur_ = out;
    }

    void avgpoolDense(int64_t classes)
    {
        const std::string pooled = format("t%d", nTemp_++);
        locals_ += format("    float %s[%lld];\n", pooled.c_str(),
                          static_cast<long long>(c_));
        body_ += format("    DL: avgpool(%s, %s);\n", cur_.c_str(),
                        pooled.c_str());
        const std::string wname = param(format(
            "wfc[%lld][%lld]", static_cast<long long>(classes),
            static_cast<long long>(c_)));
        const std::string bname = param(format(
            "bfc[%lld]", static_cast<long long>(classes)));
        body_ += format("    DL: dense(%s, %s, %s, logits);\n",
                        pooled.c_str(), wname.c_str(), bname.c_str());
        decls_.push_back(format("output float logits[%lld]",
                                static_cast<long long>(classes)));
    }

    std::string current() const { return cur_; }

    /** Snapshot of the current tensor name and geometry (for residuals).*/
    void geometry(int64_t *c, int64_t *h) const
    {
        *c = c_;
        *h = h_;
    }

    std::string finish() const
    {
        std::string out = std::string(kDnnComponents);
        out += "main(";
        out += join(decls_, ",\n     ");
        out += ") {\n";
        out += locals_;
        out += body_;
        out += "}\n";
        return out;
    }

  private:
    std::string temp(int64_t c, int64_t h, int64_t w)
    {
        const std::string name = format("t%d", nTemp_++);
        locals_ += format("    float %s[%lld][%lld][%lld];\n", name.c_str(),
                          static_cast<long long>(c),
                          static_cast<long long>(h),
                          static_cast<long long>(w));
        return name;
    }

    std::string param(const std::string &decl_with_dims)
    {
        decls_.push_back("param float " + decl_with_dims);
        ++nParam_;
        const auto bracket = decl_with_dims.find('[');
        return decl_with_dims.substr(0, bracket);
    }

    int64_t c_;
    int64_t h_;
    int64_t w_;
    std::string cur_;
    std::vector<std::string> decls_;
    std::string locals_;
    std::string body_;
    int nTemp_ = 0;
    int nParam_ = 0;
};

} // namespace

std::string
resnet18Program()
{
    DnnEmitter e(3, 224);
    e.conv(64, 7, 2, 3);
    e.bnRelu();
    e.maxpool(3, 2, 1);

    const int64_t stage_channels[4] = {64, 128, 256, 512};
    for (int stage = 0; stage < 4; ++stage) {
        for (int block = 0; block < 2; ++block) {
            const int64_t k = stage_channels[stage];
            const int64_t stride = (stage > 0 && block == 0) ? 2 : 1;
            const std::string shortcut_in = e.current();
            int64_t in_c = 0;
            int64_t in_h = 0;
            e.geometry(&in_c, &in_h);
            std::string shortcut = shortcut_in;
            e.conv(k, 3, stride, 1);
            e.bnRelu();
            e.conv(k, 3, 1, 1);
            e.bnRelu(false);
            if (stride != 1) {
                // Downsample: 1x1 stride-2 conv on the block input (its
                // batchnorm folds into the conv weights).
                shortcut = e.convOn(shortcut_in, in_c, in_h, k, 1, stride);
            }
            e.residualAdd(shortcut);
            e.relu();
        }
    }
    e.avgpoolDense(1000);
    return e.finish();
}

std::string
mobilenetProgram()
{
    DnnEmitter e(3, 224);
    e.conv(32, 3, 2, 1);
    e.bnRelu();
    const struct { int64_t stride, out; } blocks[] = {
        {1, 64},  {2, 128}, {1, 128}, {2, 256}, {1, 256},
        {2, 512}, {1, 512}, {1, 512}, {1, 512}, {1, 512},
        {1, 512}, {2, 1024}, {1, 1024},
    };
    for (const auto &b : blocks) {
        e.convDw(3, b.stride, 1);
        e.bnRelu();
        e.conv(b.out, 1, 1, 0);
        e.bnRelu();
    }
    e.avgpoolDense(1000);
    return e.finish();
}

std::string
brainStimulProgram()
{
    const int64_t n = 4096;
    std::string out = fftComponents(n);
    out += R"(power_spectrum(input complex spec[n], output float p[n]) {
    index i[0:n-1];
    p[i] = re(spec[i]*conj(spec[i]));
}
logreg_infer(input float x[D], state float w[D], output float y) {
    index d[0:D-1];
    y = sigmoid(sum[d](w[d]*x[d]));
}
scale_reference(param float ref[c], input float marker,
                output float sref[c]) {
    index k[0:c-1];
    sref[k] = ref[k]*marker;
}
predict_trajectory(input float pos[a], input float ctrl_mdl[b],
                   param float P[c][a], param float H[c][b],
                   output float pred[c]) {
    index i[0:a-1], j[0:b-1], k[0:c-1];
    pred[k] = sum[i](P[k][i]*pos[i]);
    pred[k] = pred[k] + sum[j](H[k][j]*ctrl_mdl[j]);
}
mvmul(input float A[m][n], input float B[n], output float C[m]) {
    index i[0:n-1], j[0:m-1];
    C[j] = sum[i](A[j][i]*B[i]);
}
compute_ctrl_grad(input float pos_pred[c], input float ctrl_mdl[b],
                  input float pos_ref[c], param float HQ_g[b][c],
                  param float R_g[b][b], output float g[b]) {
    index i[0:b-1], j[0:c-1];
    float P_g[b], H_g[b], err[c];
    err[j] = pos_ref[j] - pos_pred[j];
    mvmul(HQ_g, err, P_g);
    mvmul(R_g, ctrl_mdl, H_g);
    g[i] = P_g[i] + H_g[i];
}
update_ctrl_model(input float ctrl_prev[b], input float g[b],
                  output float ctrl_mdl[b], output float ctrl_sgnl[s],
                  param int h) {
    index i[0:b-2], j[0:s-1];
    ctrl_sgnl[j] = ctrl_prev[h*j];
    ctrl_mdl[b-1] = 0;
    ctrl_mdl[i] = ctrl_prev[(i+1)] - g[(i+1)];
}
main(input complex ecog[4096], param complex tw[2048],
     state float w_cls[4096], input float pos[3],
     state float ctrl_mdl[80], param float pos_ref[120],
     param float P[120][3], param float HQ_g[80][120],
     param float H[120][80], param float R_g[80][80],
     output float stim_sgnl[2], output float biomarker) {
    complex spec[4096];
    float power[4096], sref[120], pos_pred[120], g[80];
)";
    out += fftCascade(n, "ecog", "spec");
    out += R"(    DSP: power_spectrum(spec, power);
    DA: logreg_infer(power, w_cls, biomarker);
    RBT: scale_reference(pos_ref, biomarker, sref);
    RBT: predict_trajectory(pos, ctrl_mdl, P, H, pos_pred);
    RBT: compute_ctrl_grad(pos_pred, ctrl_mdl, sref, HQ_g, R_g, g);
    RBT: update_ctrl_model(ctrl_mdl, g, ctrl_mdl, stim_sgnl, 40);
}
)";
    return out;
}

std::string
optionPricingProgram()
{
    // 96 resident news articles over a 129549-word bag-of-words space
    // (Table IV), 16384 options. The article matrix is `state`: the host
    // refreshes it out-of-band and the type modifier lets the accelerator
    // keep it in its 75 MB on-chip memory (Section II-A).
    return R"(sentiment_infer(state float art[N][D], state float w[D],
                output float sent[N]) {
    index n[0:N-1], d[0:D-1];
    sent[n] = sigmoid(sum[d](w[d]*art[n][d]));
}
market_signal(input float sent[N], output float sig) {
    index n[0:N-1];
    sig = sum[n](sent[n]) / N;
}
black_scholes(input float s[M], input float strike[M], input float t[M],
              input float sig, param float rate, param float vol,
              output float price[M]) {
    index i[0:M-1];
    float va, d1[M], d2[M], nd1[M], nd2[M];
    va = vol*(1 + (sig - 1/2));
    d1[i] = (ln(s[i]/strike[i]) + (rate + va*va/2)*t[i]) / (va*sqrt(t[i]));
    d2[i] = d1[i] - va*sqrt(t[i]);
    nd1[i] = (1 + erf(d1[i]/sqrt(2)))/2;
    nd2[i] = (1 + erf(d2[i]/sqrt(2)))/2;
    price[i] = s[i]*nd1[i] - strike[i]*exp(-rate*t[i])*nd2[i];
}
main(state float art[96][129549], state float w_sent[129549],
     input float s[16384], input float strike[16384], input float t[16384],
     param float rate, param float vol, output float price[16384]) {
    float sent[96], sig;
    DA: sentiment_infer(art, w_sent, sent);
    DA: market_signal(sent, sig);
    DA: black_scholes(s, strike, t, sig, rate, vol, price);
}
)";
}

} // namespace polymath::wl
