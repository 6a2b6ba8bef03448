/**
 * @file
 * Functional validation of every workload: the PMLang program executed by
 * the interpreter must match the hand-written native reference
 * element-for-element (at test scale), for all five domains and the
 * end-to-end application kernels; and the Table III/IV programs' scalar
 * op counts from build through partition compile.
 */
#include <cmath>
#include <gtest/gtest.h>

#include "core/rng.h"
#include "interp/interpreter.h"
#include "srdfg/builder.h"
#include "workloads/datasets.h"
#include "workloads/programs.h"
#include "targets/common/backend.h"
#include "lower/lower.h"
#include "passes/pass.h"
#include "srdfg/traversal.h"
#include "workloads/reference.h"
#include "workloads/suite.h"

namespace polymath::wl {
namespace {

Tensor
randomTensor(Shape shape, uint64_t seed, double lo = -1.0, double hi = 1.0)
{
    Rng rng(seed);
    Tensor t(DType::Float, shape);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = rng.uniform(lo, hi);
    return t;
}

// --- DSP ---------------------------------------------------------------------

class FftSizes : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(FftSizes, MatchesIterativeReference)
{
    const int64_t n = GetParam();
    auto g = ir::compileToSrdfg(fftProgram(n));
    const Tensor signal = complexSignal(n, 77);
    auto out = interp::evaluate(
        *g, {{"x", signal}, {"tw", twiddleTable(n)}});
    const Tensor expect = ref::fftTensor(signal);
    EXPECT_LT(Tensor::maxAbsDiff(out.at("y"), expect), 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(8, 64, 256, 1024));

TEST(Fft, ParsevalHolds)
{
    const int64_t n = 256;
    auto g = ir::compileToSrdfg(fftProgram(n));
    const Tensor signal = complexSignal(n, 3);
    auto out = interp::evaluate(
        *g, {{"x", signal}, {"tw", twiddleTable(n)}});
    double time_energy = 0.0;
    double freq_energy = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        time_energy += std::norm(signal.cat(i));
        freq_energy += std::norm(out.at("y").cat(i));
    }
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-6 * time_energy);
}

TEST(Dct, MatchesBlockedReference)
{
    auto g = ir::compileToSrdfg(dctProgram(32, 32));
    const Tensor img = randomImage(32, 32, 5);
    const Tensor basis = dctBasis();
    auto out = interp::evaluate(*g, {{"img", img}, {"C", basis}});
    const Tensor expect = ref::dct8x8(img, basis);
    EXPECT_LT(Tensor::maxAbsDiff(out.at("out"), expect), 1e-9);
}

TEST(Dct, DcCoefficientIsBlockMean)
{
    auto g = ir::compileToSrdfg(dctProgram(8, 8));
    Tensor img(DType::Float, Shape{8, 8});
    for (int64_t i = 0; i < 64; ++i)
        img.at(i) = 10.0;
    auto out = interp::evaluate(*g, {{"img", img}, {"C", dctBasis()}});
    EXPECT_NEAR(out.at("out").at({0, 0}), 80.0, 1e-9); // 10 * 8
    EXPECT_NEAR(out.at("out").at({3, 4}), 0.0, 1e-9);
}

// --- Data analytics -----------------------------------------------------------

TEST(Kmeans, StepMatchesReferenceAndConverges)
{
    const int64_t n = 60;
    const int64_t d = 5;
    const int64_t k = 3;
    Tensor centers;
    const Tensor x = gaussianClusters(n, d, k, 9, &centers);
    auto g = ir::compileToSrdfg(kmeansProgram(n, d, k));

    interp::Interpreter it(*g);
    it.setInput("x", x);
    Tensor mu(DType::Float, Shape{k, d});
    for (int64_t c = 0; c < k; ++c) {
        for (int64_t j = 0; j < d; ++j)
            mu.at({c, j}) = x.at({c, j}); // first points as seeds
    }
    it.setInput("mu", mu);

    Tensor ref_mu = mu;
    for (int iter = 0; iter < 8; ++iter) {
        it.run();
        Tensor ref_assign;
        ref_mu = ref::kmeansStep(x, ref_mu, &ref_assign);
        EXPECT_LT(Tensor::maxAbsDiff(it.output("mu"), ref_mu), 1e-9)
            << "iter " << iter;
        EXPECT_LT(Tensor::maxAbsDiff(it.output("assign"), ref_assign),
                  1e-9);
    }
    // Converged centroids sit near the true generating centers (within
    // cluster noise).
    double worst = 1e9;
    for (int64_t c = 0; c < k; ++c) {
        for (int64_t t = 0; t < k; ++t) {
            double dist = 0.0;
            for (int64_t j = 0; j < d; ++j) {
                const double diff =
                    it.output("mu").at({c, j}) - centers.at({t, j});
                dist += diff * diff;
            }
            worst = std::min(worst, dist);
        }
    }
    EXPECT_LT(std::sqrt(worst), 1.0);
}

TEST(Lrmf, GradientStepMatchesReferenceAndReducesError)
{
    const int64_t users = 12;
    const int64_t items = 9;
    const int64_t rank = 3;
    const Tensor r = ratingsMatrix(users, items, rank, 21);
    auto g = ir::compileToSrdfg(lrmfProgram(users, items, rank));

    interp::Interpreter it(*g);
    it.setInput("r", r);
    Tensor w = randomTensor(Shape{users, rank}, 1, 0.1, 0.5);
    Tensor h = randomTensor(Shape{rank, items}, 2, 0.1, 0.5);
    it.setInput("w", w);
    it.setInput("h", h);
    it.setInput("lr", Tensor::scalar(0.01));

    auto frobenius_error = [&](const Tensor &wt, const Tensor &ht) {
        double err = 0.0;
        for (int64_t u = 0; u < users; ++u) {
            for (int64_t i = 0; i < items; ++i) {
                double dot = 0.0;
                for (int64_t q = 0; q < rank; ++q)
                    dot += wt.at({u, q}) * ht.at({q, i});
                err += (r.at({u, i}) - dot) * (r.at({u, i}) - dot);
            }
        }
        return err;
    };
    const double initial = frobenius_error(w, h);
    for (int iter = 0; iter < 5; ++iter) {
        it.run();
        ref::lrmfStep(r, &w, &h, 0.01);
        EXPECT_LT(Tensor::maxAbsDiff(it.output("w"), w), 1e-9);
        EXPECT_LT(Tensor::maxAbsDiff(it.output("h"), h), 1e-9);
    }
    EXPECT_LT(frobenius_error(w, h), initial * 0.8);
}

TEST(Logreg, TrainingStepMatchesReferenceAndLearns)
{
    const int64_t n = 40;
    const int64_t d = 6;
    const auto [x, y] = labeledSet(n, d, 31);
    auto g = ir::compileToSrdfg(logregProgram(n, d));

    interp::Interpreter it(*g);
    it.setInput("x", x);
    it.setInput("y", y);
    Tensor w(DType::Float, Shape{d});
    it.setInput("w", w);
    it.setInput("lr", Tensor::scalar(0.05));
    for (int iter = 0; iter < 30; ++iter) {
        it.run();
        ref::logregStep(x, y, &w, 0.05);
        ASSERT_LT(Tensor::maxAbsDiff(it.output("w"), w), 1e-8);
    }
    // Training accuracy beats chance comfortably.
    int correct = 0;
    for (int64_t i = 0; i < n; ++i) {
        double dot = 0.0;
        for (int64_t j = 0; j < d; ++j)
            dot += w.at(j) * x.at({i, j});
        correct += (dot > 0.0) == (y.at(i) > 0.5);
    }
    EXPECT_GT(correct, static_cast<int>(n * 3 / 4));
}

TEST(BlackScholes, MatchesClosedForm)
{
    const int64_t n = 64;
    auto g = ir::compileToSrdfg(blackScholesProgram(n));
    const auto batch = optionBatch(n, 13);
    auto out = interp::evaluate(*g, {{"s", batch.spot},
                                     {"strike", batch.strike},
                                     {"t", batch.expiry},
                                     {"rate", Tensor::scalar(0.05)},
                                     {"vol", Tensor::scalar(0.25)}});
    const Tensor expect = ref::blackScholes(batch.spot, batch.strike,
                                            batch.expiry, 0.05, 0.25);
    EXPECT_LT(Tensor::maxAbsDiff(out.at("price"), expect), 1e-9);
    // No-arbitrage sanity: price within [max(S-K e^{-rt},0), S].
    for (int64_t i = 0; i < n; ++i) {
        const double p = out.at("price").at(i);
        EXPECT_GE(p, -1e-9);
        EXPECT_LE(p, batch.spot.at(i) + 1e-9);
    }
}

// --- Graph analytics -----------------------------------------------------------

TEST(Bfs, IteratesToExactHopDistances)
{
    const int64_t n = 48;
    const Tensor adj = denseRmatAdjacency(n, 4 * n, 17, false);
    auto g = ir::compileToSrdfg(bfsProgram(n));

    constexpr double kInf = 1e9;
    Tensor dist(DType::Float, Shape{n});
    for (int64_t i = 0; i < n; ++i)
        dist.at(i) = kInf;
    dist.at(int64_t{0}) = 0.0;

    interp::Interpreter it(*g);
    it.setInput("adj", adj);
    it.setInput("dist", dist);
    Tensor ref_dist = dist;
    for (int iter = 0; iter < n; ++iter) {
        it.run();
        ref_dist = ref::graphRelax(adj, ref_dist, false);
        ASSERT_LT(Tensor::maxAbsDiff(it.output("dist"), ref_dist), 1e-9);
    }
    const Tensor exact = ref::bfsDistances(adj, 0);
    EXPECT_LT(Tensor::maxAbsDiff(it.output("dist"), exact), 1e-9);
}

TEST(Sssp, RelaxationMatchesWeightedReference)
{
    const int64_t n = 32;
    const Tensor adj = denseRmatAdjacency(n, 3 * n, 23, true);
    auto g = ir::compileToSrdfg(sssPProgram(n));

    constexpr double kInf = 1e9;
    Tensor dist(DType::Float, Shape{n});
    for (int64_t i = 0; i < n; ++i)
        dist.at(i) = kInf;
    dist.at(int64_t{0}) = 0.0;

    interp::Interpreter it(*g);
    it.setInput("adj", adj);
    it.setInput("dist", dist);
    Tensor ref_dist = dist;
    for (int iter = 0; iter < n; ++iter) {
        it.run();
        ref_dist = ref::graphRelax(adj, ref_dist, true);
        ASSERT_LT(Tensor::maxAbsDiff(it.output("dist"), ref_dist), 1e-9);
    }
    // Triangle inequality on every edge at the fixpoint.
    const auto &final_dist = it.output("dist");
    for (int64_t u = 0; u < n; ++u) {
        for (int64_t v = 0; v < n; ++v) {
            if (adj.at({u, v}) > 0) {
                EXPECT_LE(final_dist.at(v),
                          final_dist.at(u) + adj.at({u, v}) + 1e-9);
            }
        }
    }
}

TEST(Pagerank, IterationMatchesReferenceAndConservesMass)
{
    const int64_t n = 40;
    Tensor adj = denseRmatAdjacency(n, 4 * n, 31, false);
    // Guarantee no dangling vertices (the program divides by out-degree).
    for (int64_t u = 0; u < n; ++u) {
        bool any = false;
        for (int64_t v = 0; v < n; ++v)
            any |= adj.at({u, v}) > 0;
        if (!any)
            adj.at({u, (u + 1) % n}) = 1.0;
    }
    Tensor outdeg(DType::Float, Shape{n});
    for (int64_t u = 0; u < n; ++u) {
        double d = 0.0;
        for (int64_t v = 0; v < n; ++v)
            d += adj.at({u, v}) > 0 ? 1.0 : 0.0;
        outdeg.at(u) = d;
    }
    Tensor rank(DType::Float, Shape{n});
    for (int64_t v = 0; v < n; ++v)
        rank.at(v) = 1.0 / static_cast<double>(n);

    auto g = ir::compileToSrdfg(pagerankProgram(n));
    interp::Interpreter it(*g);
    it.setInput("adj", adj);
    it.setInput("outdeg", outdeg);
    it.setInput("rank", rank);
    it.setInput("damp", Tensor::scalar(0.85));

    Tensor ref_rank = rank;
    Tensor prev = rank;
    for (int iter = 0; iter < 30; ++iter) {
        it.run();
        ref_rank = ref::pagerankIter(adj, outdeg, ref_rank, 0.85);
        ASSERT_LT(Tensor::maxAbsDiff(it.output("rank"), ref_rank), 1e-12)
            << "iter " << iter;
        prev = it.output("rank");
    }
    // Probability mass is conserved (dangling-free) and the iteration
    // has essentially converged after 30 rounds.
    double mass = 0.0;
    for (int64_t v = 0; v < n; ++v) {
        mass += prev.at(v);
        EXPECT_GT(prev.at(v), 0.0);
    }
    EXPECT_NEAR(mass, 1.0, 1e-9);
    it.run();
    EXPECT_LT(Tensor::maxAbsDiff(it.output("rank"), prev), 1e-6);
}

TEST(Pagerank, CompilesToGraphicionado)
{
    const auto &registry = target::standardRegistry();
    const auto compiled = wl::compileBenchmark(
        pagerankProgram(48), {}, registry, lang::Domain::GA);
    ASSERT_EQ(compiled.partitions.size(), 1u);
    EXPECT_EQ(compiled.partitions.front().accel, "Graphicionado");
}

// --- Robotics -------------------------------------------------------------------

TEST(MobileRobot, TwentyStepsMatchReference)
{
    auto g = ir::compileToSrdfg(mobileRobotProgram());
    const Tensor p = randomTensor(Shape{30, 3}, 41, -0.2, 0.2);
    const Tensor h = randomTensor(Shape{30, 20}, 42, -0.1, 0.1);
    const Tensor hq = randomTensor(Shape{20, 30}, 43, -0.05, 0.05);
    const Tensor rg = randomTensor(Shape{20, 20}, 44, -0.05, 0.05);
    const Tensor pos_ref = randomTensor(Shape{30}, 45);

    interp::Interpreter it(*g);
    it.setInput("P", p);
    it.setInput("H", h);
    it.setInput("HQ_g", hq);
    it.setInput("R_g", rg);
    it.setInput("pos_ref", pos_ref);
    it.setInput("ctrl_mdl", Tensor(DType::Float, Shape{20}));

    Tensor ref_ctrl(DType::Float, Shape{20});
    Rng rng(50);
    for (int step = 0; step < 20; ++step) {
        const Tensor pos = Tensor::vec(
            {rng.gaussian(), rng.gaussian(), rng.gaussian() * 0.1});
        it.setInput("pos", pos);
        it.run();
        const auto expect =
            ref::mpcStep(pos, ref_ctrl, pos_ref, p, hq, h, rg, 10);
        ASSERT_LT(Tensor::maxAbsDiff(it.output("ctrl_sgnl"),
                                     expect.ctrlSgnl),
                  1e-9);
        ASSERT_LT(Tensor::maxAbsDiff(it.output("ctrl_mdl"),
                                     expect.ctrlMdl),
                  1e-9);
        ref_ctrl = expect.ctrlMdl;
    }
}

TEST(Hexacopter, BuildsAndProducesFiniteCommands)
{
    auto g = ir::compileToSrdfg(hexacopterProgram());
    interp::Interpreter it(*g);
    Rng rng(61);
    auto bind = [&](const std::string &name, Shape shape, double scale) {
        Tensor t(DType::Float, shape);
        for (int64_t i = 0; i < t.numel(); ++i)
            t.at(i) = rng.gaussian() * scale;
        it.setInput(name, t);
    };
    bind("meas", Shape{12}, 0.1);
    bind("mix", Shape{6, 6}, 0.3);
    bind("J_inv", Shape{3, 3}, 0.2);
    bind("A", Shape{384, 12}, 0.05);
    bind("B", Shape{384, 192}, 0.01);
    bind("ref", Shape{384}, 0.5);
    bind("Q", Shape{384}, 1.0);
    bind("Bt", Shape{192, 384}, 0.01);
    bind("Rg", Shape{192, 192}, 0.01);
    it.setInput("useq", Tensor(DType::Float, Shape{192}));
    it.setInput("mass", Tensor::scalar(1.4));
    it.setInput("dt", Tensor::scalar(0.01));
    it.setInput("lr", Tensor::scalar(0.05));
    for (int step = 0; step < 3; ++step) {
        it.run();
        const auto &cmd = it.output("rotor_cmd");
        for (int64_t i = 0; i < 6; ++i)
            EXPECT_TRUE(std::isfinite(cmd.at(i)));
    }
    // The control sequence actually updates (state is live).
    double norm = 0.0;
    for (int64_t i = 0; i < 192; ++i)
        norm += std::abs(it.output("useq").at(i));
    EXPECT_GT(norm, 0.0);
}

// --- Deep learning (tiny CNN against references) -----------------------------

TEST(Dnn, ConvAndDenseComponentsMatchReference)
{
    // A miniature network from the same component library the CNN
    // generators use: pad -> conv -> relu -> dense.
    const char *src = R"(
pad(input float x[C][H][W], param int p, output float y[C][HP][WP]) {
    index c[0:C-1], i[0:H-1], j[0:W-1];
    y[c][i+p][j+p] = x[c][i][j];
}
conv2d(input float x[C][HI][WI], param float wgt[K][C][R][S],
       param int stride, output float y[K][HO][WO]) {
    index k[0:K-1], i[0:HO-1], j[0:WO-1], c[0:C-1], r[0:R-1], q[0:S-1];
    y[k][i][j] = sum[c][r][q](x[c][i*stride+r][j*stride+q]
                              * wgt[k][c][r][q]);
}
relu_layer(input float x[C][H][W], output float y[C][H][W]) {
    index c[0:C-1], i[0:H-1], j[0:W-1];
    y[c][i][j] = relu(x[c][i][j]);
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
main(input float img[2][6][6], param float w0[3][2][3][3],
     param float wfc[4][3], param float bfc[4],
     output float logits[4]) {
    float t0[2][8][8], t1[3][3][3], t2[3][3][3], t3[3];
    DL: pad(img, 1, t0);
    DL: conv2d(t0, w0, 2, t1);
    DL: relu_layer(t1, t2);
    DL: avgpool(t2, t3);
    DL: dense(t3, wfc, bfc, logits);
}
)";
    auto g = ir::compileToSrdfg(src);
    const Tensor img = randomTensor(Shape{2, 6, 6}, 71);
    const Tensor w0 = randomTensor(Shape{3, 2, 3, 3}, 72);
    const Tensor wfc = randomTensor(Shape{4, 3}, 73);
    const Tensor bfc = randomTensor(Shape{4}, 74);
    auto out = interp::evaluate(*g, {{"img", img},
                                     {"w0", w0},
                                     {"wfc", wfc},
                                     {"bfc", bfc}});

    // Reference: pad, conv stride 2, relu, global avg, dense.
    Tensor padded(DType::Float, Shape{2, 8, 8});
    for (int64_t c = 0; c < 2; ++c) {
        for (int64_t i = 0; i < 6; ++i) {
            for (int64_t j = 0; j < 6; ++j)
                padded.at({c, i + 1, j + 1}) = img.at({c, i, j});
        }
    }
    Tensor conv = ref::conv2d(padded, w0, 2);
    Tensor pooled(DType::Float, Shape{3});
    for (int64_t k = 0; k < 3; ++k) {
        double acc = 0.0;
        for (int64_t i = 0; i < 3; ++i) {
            for (int64_t j = 0; j < 3; ++j)
                acc += std::max(conv.at({k, i, j}), 0.0);
        }
        pooled.at(k) = acc / 9.0;
    }
    const Tensor expect = ref::dense(pooled, wfc, bfc);
    EXPECT_LT(Tensor::maxAbsDiff(out.at("logits"), expect), 1e-9);
}

TEST(Dnn, GeneratedNetworksHaveExpectedWork)
{
    auto resnet = ir::compileToSrdfg(resnet18Program());
    auto mobilenet = ir::compileToSrdfg(mobilenetProgram());
    // Real models: ResNet-18 ~1.8 GMACs, MobileNet-V1 ~0.57 GMACs.
    EXPECT_NEAR(static_cast<double>(resnet->scalarOpCount()), 3.6e9,
                0.4e9);
    EXPECT_NEAR(static_cast<double>(mobilenet->scalarOpCount()), 1.15e9,
                0.2e9);
    EXPECT_EQ(resnet->value(resnet->outputs[0]).md.shape, (Shape{1000}));
    EXPECT_EQ(mobilenet->value(mobilenet->outputs[0]).md.shape,
              (Shape{1000}));
}

// --- deep nesting -----------------------------------------------------------------

TEST(Nesting, FourLevelComponentTowerExecutes)
{
    const char *src = R"(
l4(input float x[2], output float y[2]) {
    index i[0:1];
    y[i] = x[i] + 1;
}
l3(input float x[2], output float y[2]) {
    float t[2];
    l4(x, t);
    l4(t, y);
}
l2(input float x[2], output float y[2]) {
    float t[2];
    l3(x, t);
    l3(t, y);
}
l1(input float x[2], output float y[2]) {
    float t[2];
    l2(x, t);
    l2(t, y);
}
main(input float x[2], output float y[2]) {
    RBT: l1(x, y);
}
)";
    auto g = ir::compileToSrdfg(src);
    EXPECT_EQ(ir::recursionDepth(*g), 5); // main + l1..l4 bodies
    auto out = interp::evaluate(*g, {{"x", Tensor::vec({0, 10})}});
    EXPECT_EQ(out.at("y").at(int64_t{0}), 8.0); // 2^3 additions of 1
    EXPECT_EQ(out.at("y").at(int64_t{1}), 18.0);

    // And it fully flattens for a scalar-op target.
    const auto &registry = target::standardRegistry();
    lower::lowerGraph(*g, registry.supportedOpsByDomain(),
                      lang::Domain::RBT);
    EXPECT_EQ(ir::recursionDepth(*g), 1);
    auto flat = interp::evaluate(*g, {{"x", Tensor::vec({0, 10})}});
    EXPECT_EQ(flat.at("y").at(int64_t{0}), 8.0);
}

// --- End-to-end ------------------------------------------------------------------

TEST(BrainStimul, ClosedLoopRunsAndClassifierRespondsToSignal)
{
    auto g = ir::compileToSrdfg(brainStimulProgram());
    interp::Interpreter it(*g);
    Tensor w_cls(DType::Float, Shape{4096});
    for (int64_t i = 0; i < 64; ++i)
        w_cls.at(i) = 1e-7;
    it.setInput("w_cls", w_cls);
    it.setInput("tw", twiddleTable(4096));
    it.setInput("ctrl_mdl", Tensor(DType::Float, Shape{80}));
    it.setInput("pos_ref", randomTensor(Shape{120}, 81, 0.0, 1.0));
    it.setInput("P", randomTensor(Shape{120, 3}, 82, -0.1, 0.1));
    it.setInput("H", randomTensor(Shape{120, 80}, 83, -0.05, 0.05));
    it.setInput("HQ_g", randomTensor(Shape{80, 120}, 84, -0.02, 0.02));
    it.setInput("R_g", randomTensor(Shape{80, 80}, 85, -0.02, 0.02));
    it.setInput("pos", Tensor::vec({0.1, 0.2, 0.0}));

    it.setInput("ecog", complexSignal(4096, 90));
    it.run();
    const double with_signal = it.output("biomarker").scalarValue();

    it.setInput("ecog", Tensor(DType::Complex, Shape{4096})); // silence
    it.run();
    const double silent = it.output("biomarker").scalarValue();
    EXPECT_GT(with_signal, silent);
    EXPECT_NEAR(silent, 0.5, 1e-9); // sigmoid(0)
    EXPECT_EQ(it.output("stim_sgnl").numel(), 2);
}

// --- work conservation -------------------------------------------------------

/** Scalar ops of one Table III/IV program as built and after the
 *  standard pipeline; lowering keeps the optimised count. The passes
 *  remove work on nine of the seventeen, while the CPU/GPU baselines
 *  are charged the built count (suite.cc). */
struct WorkCounts
{
    const char *id;
    int64_t built;
    int64_t optimised;
};

constexpr WorkCounts kWork[] = {
    {"MobileRobot", 3379, 3379},
    {"Hexacopter", 378589, 378576},
    {"Twitter-BFS", 7008, 7008},
    {"Wiki-BFS", 7008, 7008},
    {"LiveJourn-SSP", 9264, 9264},
    {"MovieL-20M", 1464098800, 1464098800},
    {"MovieL-100K", 6006500, 6006500},
    {"DigitCluster", 5650560000, 4709760000},
    {"ElecUse", 718039614, 618427182},
    {"FFT-8192", 212992, 159744},
    {"FFT-16384", 458752, 344064},
    {"DCT-1024", 31457280, 31457280},
    {"DCT-2048", 125829120, 125829120},
    {"ResNet-18", 3634970625, 3634970624},
    {"MobileNet", 1147616257, 1147616256},
    {"BrainStimul", 170823, 146247},
    {"OptionPricing", 25266730, 25233959},
};

TEST(WorkConservation, LoweringAndTranslationKeepEveryOp)
{
    struct Program
    {
        std::string id;
        const std::string *source;
        const ir::BuildOptions *opts;
        lang::Domain domain;
    };
    std::vector<Program> programs;
    for (const auto &b : tableIII())
        programs.push_back({b.id, &b.source, &b.buildOpts, b.domain});
    for (const auto &a : tableIV())
        programs.push_back(
            {a.id, &a.source, &a.buildOpts, lang::Domain::None});
    ASSERT_EQ(programs.size(), std::size(kWork));

    const auto &registry = target::standardRegistry();
    const auto pipeline = pass::standardPipeline();
    for (size_t i = 0; i < programs.size(); ++i) {
        const Program &p = programs[i];
        ASSERT_EQ(p.id, kWork[i].id);
        auto graph = buildGraph(*p.source, *p.opts);
        EXPECT_EQ(graph->scalarOpCount(), kWork[i].built) << p.id;
        pipeline.runToFixpoint(*graph);
        EXPECT_EQ(graph->scalarOpCount(), kWork[i].optimised) << p.id;
        lower::lowerGraph(*graph, registry.supportedOpsByDomain(),
                          p.domain);
        EXPECT_EQ(graph->scalarOpCount(), kWork[i].optimised) << p.id;
        const auto compiled =
            lower::compileProgram(*graph, registry, p.domain);
        int64_t partition_flops = 0;
        for (const auto &part : compiled.partitions)
            partition_flops += part.flops();
        // A miscompile that drops or duplicates work breaks this.
        EXPECT_EQ(partition_flops, graph->scalarOpCount()) << p.id;
    }
}

} // namespace
} // namespace polymath::wl
