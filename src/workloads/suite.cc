#include "workloads/suite.h"

#include <algorithm>
#include <mutex>

#include "core/strings.h"

#include "lower/lower.h"
#include "passes/pass.h"
#include "pmlang/parser.h"
#include "pmlang/sema.h"
#include "workloads/programs.h"
#include "workloads/reference.h"

namespace polymath::wl {

using lang::Domain;

target::WorkloadCost
Benchmark::cpuCost() const
{
    target::WorkloadCost cost;
    cost.domain = domain;
    cost.flops = deployedFlops;
    cost.bytes = deployedBytes;
    cost.kernels = kernels;
    cost.invocations = profile.invocations;
    cost.parallelWidth = profile.parallelWidth;
    cost.irregular = irregular;
    cost.cpuEff = cpuEff;
    cost.gpuEff = gpuEff;
    return cost;
}

target::WorkloadCost
EndToEndApp::cpuCost() const
{
    target::WorkloadCost cost;
    cost.domain = Domain::None;
    cost.flops = deployedFlops;
    cost.bytes = deployedBytes;
    cost.kernels = kernelLaunches;
    cost.invocations = profile.invocations;
    cost.parallelWidth = parallelWidth;
    return cost;
}

std::unique_ptr<ir::Graph>
buildGraph(const std::string &source, const ir::BuildOptions &opts)
{
    return ir::compileToSrdfg(source, opts);
}

lower::CompiledProgram
compileBenchmark(const std::string &source, const ir::BuildOptions &opts,
                 const lower::AcceleratorRegistry &registry,
                 Domain default_domain)
{
    auto graph = buildGraph(source, opts);
    auto pipeline = pass::standardPipeline();
    pipeline.runToFixpoint(*graph);
    lower::lowerGraph(*graph, registry.supportedOpsByDomain(),
                      default_domain);
    return lower::compileProgram(*graph, registry, default_domain);
}

std::shared_ptr<const lower::CompiledProgram>
compileBenchmarkCached(const std::string &source,
                       const ir::BuildOptions &opts,
                       const lower::AcceleratorRegistry &registry,
                       Domain default_domain, lower::CompileCache &cache)
{
    const std::string key =
        lower::compileCacheKey(source, opts, default_domain, registry);
    return cache.getOrCompile(key, [&] {
        return compileBenchmark(source, opts, registry, default_domain);
    });
}

namespace {

/** Builds one Table III entry; deployed flops defaulting to the compiled
 *  graph's exact scalar-op count times the profile scale. */
Benchmark
makeBenchmark(Benchmark b)
{
    if (b.deployedFlops == 0) {
        auto graph = buildGraph(b.source, b.buildOpts);
        b.deployedFlops = static_cast<int64_t>(
            static_cast<double>(graph->scalarOpCount()) * b.profile.scale);
    }
    if (b.optimalFlops == 0)
        b.optimalFlops = b.deployedFlops;
    return b;
}

std::vector<Benchmark>
makeTableIII()
{
    std::vector<Benchmark> out;

    {
        Benchmark b;
        b.id = "MobileRobot";
        b.algorithm = "Model Predictive Control";
        b.config = "Trajectory Tracking, Horizon = 1024";
        b.domain = Domain::RBT;
        b.accel = "RoboX";
        b.source = mobileRobotProgram();
        b.profile.invocations = 1024;
        b.profile.parallelWidth = 30;
        b.deployedBytes = 14000;
        b.kernels = 1; // cuBLAS graph-captured step on the GPU baselines
        b.cpuEff = 0.0028; // ACADO codegen on a 3.4k-op kernel
        b.optimalFlops = ref::mpcOptimalFlops(3, 20, 30);
        b.optimalFragments = 6;
        out.push_back(makeBenchmark(std::move(b)));
    }
    {
        Benchmark b;
        b.id = "Hexacopter";
        b.algorithm = "Model Predictive Control";
        b.config = "Altitude Control, Horizon = 1024";
        b.domain = Domain::RBT;
        b.accel = "RoboX";
        b.source = hexacopterProgram();
        b.profile.invocations = 1024;
        b.profile.parallelWidth = 384;
        b.deployedBytes = 1520000;
        b.kernels = 2;
        b.cpuEff = 0.021;
        b.optimalFlops = 340000;
        b.optimalFragments = 10;
        out.push_back(makeBenchmark(std::move(b)));
    }

    auto graph_bench = [](std::string id, std::string config, bool weighted,
                          int64_t vertices, int64_t edges, int64_t iters) {
        Benchmark b;
        b.id = std::move(id);
        b.algorithm = weighted ? "Single Source Shortest Path"
                               : "Breadth-First Search";
        b.config = std::move(config);
        b.domain = Domain::GA;
        b.accel = "Graphicionado";
        b.source = weighted ? sssPProgram(48) : bfsProgram(48);
        b.profile.invocations = iters;
        b.profile.vertices = vertices;
        b.profile.edges = edges;
        b.profile.parallelWidth = static_cast<double>(vertices) / 8.0;
        b.irregular = true;
        // CPU (GraphMat) view: ~4 ops and ~8 bytes per edge per sweep.
        b.deployedFlops = edges * 4 + vertices * 2;
        b.deployedBytes = edges * 8 + vertices * 8;
        b.kernels = 2;
        b.cpuEff = 0.028; // GraphMat at ~2.4 GTEPS on 6 cores
        b.optimalOpsPerEdge = 2.0;
        b.optimalOpsPerVertex = 1.0;
        b.optimalFlops = ref::graphOptimalFlops(vertices, edges);
        b.optimalFragments = 2;
        return makeBenchmark(std::move(b));
    };
    // Scaled-down stand-ins for the Table III graphs (DESIGN.md §1);
    // the degree skew (R-MAT) matches, the sizes are laptop-scale.
    out.push_back(graph_bench("Twitter-BFS",
                              "#V=1.05M, #E=16.8M (R-MAT proxy)", false,
                              int64_t{1} << 20, int64_t{1} << 24, 8));
    out.push_back(graph_bench("Wiki-BFS",
                              "#V=262k, #E=6.3M (R-MAT proxy)", false,
                              int64_t{1} << 18, int64_t{6} << 20, 8));
    out.push_back(graph_bench("LiveJourn-SSP",
                              "#V=524k, #E=7.3M (R-MAT proxy)", true,
                              int64_t{1} << 19, int64_t{7} << 20, 16));

    auto lrmf_bench = [](std::string id, std::string config,
                         int64_t users, int64_t items, int64_t ratings,
                         double cpu_eff) {
        // cpu_eff reflects mlpack SGD's random-access rating updates.
        // Compiled at an equivalent-work dense shape: full-batch GD over
        // users x items cells does the same arithmetic the native SGD
        // stack performs over the observed ratings (DESIGN.md §1).
        Benchmark b;
        b.id = std::move(id);
        b.algorithm = "Low Rank Matrix Factorization";
        b.config = std::move(config);
        b.domain = Domain::DA;
        b.accel = "TABLA";
        b.source = lrmfProgram(users, items, 10);
        b.profile.invocations = 10;
        b.profile.parallelWidth = static_cast<double>(users * 10);
        b.deployedBytes = ratings * 24;
        b.kernels = 3;
        b.cpuEff = cpu_eff;
        // Hand-tuned SGD does the same multiply-accumulate work as the
        // equivalent-shape dense GD (that is how the shape was chosen),
        // so optimalFlops defaults to the compiled count.
        b.optimalFragments = 3;
        return makeBenchmark(std::move(b));
    };
    out.push_back(lrmf_bench("MovieL-20M",
                             "40110 movies, 259137 users; 24.4M ratings",
                             4880, 5000, 24409600, 0.05));
    out.push_back(lrmf_bench("MovieL-100K",
                             "1682 movies, 943 users; 100000 ratings",
                             400, 250, 100000, 0.04));

    auto kmeans_bench = [](std::string id, std::string config, int64_t n,
                           int64_t d, int64_t k) {
        Benchmark b;
        b.id = std::move(id);
        b.algorithm = "K-Means Clustering";
        b.config = std::move(config);
        b.domain = Domain::DA;
        b.accel = "TABLA";
        b.source = kmeansProgram(n, d, k);
        b.profile.invocations = 10;
        b.profile.parallelWidth = static_cast<double>(n);
        b.deployedBytes = n * d * 8;
        b.kernels = 6;
        b.cpuEff = d >= 64 ? 0.30 : 0.20; // long rows vectorize well
        b.optimalFlops = ref::kmeansOptimalFlops(n, d, k);
        b.optimalFragments = 4;
        return makeBenchmark(std::move(b));
    };
    out.push_back(kmeans_bench("DigitCluster",
                               "784 features; 120000 images; K=10", 120000,
                               784, 10));
    out.push_back(kmeans_bench("ElecUse",
                               "4 features; 2075259 data points; K=12",
                               2075259, 4, 12));

    auto fft_bench = [](int64_t n) {
        Benchmark b;
        b.id = "FFT-" + std::to_string(n);
        b.algorithm = "Fast-Fourier Transform";
        b.config = "1D FFT-complex; " + std::to_string(n) + "x1 input";
        b.domain = Domain::DSP;
        b.accel = "DECO";
        b.source = fftProgram(n);
        b.profile.invocations = 1000; // streamed signal frames
        b.profile.parallelWidth = static_cast<double>(n) / 2.0;
        b.deployedBytes = n * 16 * 2;
        int64_t lg = 0;
        while ((int64_t{1} << lg) < n)
            ++lg;
        b.kernels = lg + 1;
        b.cpuEff = 0.004; // FFTW3 in complex-op units (~1 cop = 5 flops)
        b.optimalFlops = 3 * (n / 2) * lg; // 1 cmul + 2 cadd per butterfly
        b.optimalFragments = lg;
        return makeBenchmark(std::move(b));
    };
    out.push_back(fft_bench(8192));
    out.push_back(fft_bench(16384));

    auto dct_bench = [](int64_t hw) {
        Benchmark b;
        b.id = "DCT-" + std::to_string(hw);
        b.algorithm = "Discrete Cosine Transform";
        b.config = std::to_string(hw) + "x" + std::to_string(hw) +
                   " image; 8x8 kernel, stride=8";
        b.domain = Domain::DSP;
        b.accel = "DECO";
        b.source = dctProgram(hw, hw);
        b.profile.invocations = 100; // video frames
        b.profile.parallelWidth = static_cast<double>(hw * hw);
        b.deployedBytes = hw * hw * 8 * 2;
        b.kernels = 2;
        b.cpuEff = 0.15; // SIMD separable filter
        b.optimalFlops = ref::dctOptimalFlops(hw, hw) * 15 / 16;
        b.optimalFragments = 2;
        return makeBenchmark(std::move(b));
    };
    out.push_back(dct_bench(1024));
    out.push_back(dct_bench(2048));

    {
        Benchmark b;
        b.id = "ResNet-18";
        b.algorithm = "Deep Neural Network";
        b.config = "Batch Size = 1, ImageNet";
        b.domain = Domain::DL;
        b.accel = "TVM-VTA";
        b.source = resnet18Program();
        b.profile.invocations = 100; // inference requests
        b.profile.parallelWidth = 100000;
        b.deployedBytes = 59000000; // fp32 weights + activations
        b.kernels = 60;
        b.cpuEff = 0.26; // TensorFlow+MKL at batch 1
        b.optimalFragments = 60;
        out.push_back(makeBenchmark(std::move(b)));
    }
    {
        Benchmark b;
        b.id = "MobileNet";
        b.algorithm = "Deep Neural Network";
        b.config = "Batch Size = 1, ImageNet";
        b.domain = Domain::DL;
        b.accel = "TVM-VTA";
        b.source = mobilenetProgram();
        b.profile.invocations = 100;
        b.profile.parallelWidth = 80000;
        b.deployedBytes = 25000000;
        b.kernels = 80;
        b.cpuEff = 0.20; // depthwise convs vectorize worse
        b.optimalFragments = 80;
        out.push_back(makeBenchmark(std::move(b)));
    }
    return out;
}

std::vector<EndToEndApp>
makeTableIV()
{
    std::vector<EndToEndApp> out;
    {
        EndToEndApp app;
        app.id = "BrainStimul";
        app.source = brainStimulProgram();
        app.kernels = {
            {"FFT", "DECO", Domain::DSP, 0.004},
            {"LR", "TABLA", Domain::DA, 0.002},
            {"MPC", "RoboX", Domain::RBT, 0.0028},
        };
        app.profile.invocations = 1000; // closed-loop stimulation steps
        app.profile.parallelWidth = 4096;
        app.profile.hostGlueSeconds = 30e-6; // per-step marshaling/logging
        auto graph = buildGraph(app.source, app.buildOpts);
        app.deployedFlops = graph->scalarOpCount();
        app.deployedBytes = 4096 * 16 * 2 + 4096 * 8 + 16000;
        app.kernelLaunches = 17;
        app.parallelWidth = 4096;
        out.push_back(std::move(app));
    }
    {
        EndToEndApp app;
        app.id = "OptionPricing";
        app.source = optionPricingProgram();
        app.kernels = {
            {"LR", "TABLA", Domain::DA, 0.05},
            {"BLKS", "HyperStreams", Domain::DA, 0.0017},
        };
        app.profile.invocations = 100; // pricing batches
        app.profile.parallelWidth = 16384;
        app.profile.hostGlueSeconds = 300e-6; // feeds/news ingestion
        auto graph = buildGraph(app.source, app.buildOpts);
        app.deployedFlops = graph->scalarOpCount();
        app.deployedBytes = 96ll * 129549 * 8 + 16384 * 32;
        app.kernelLaunches = 5;
        app.parallelWidth = 16384;
        out.push_back(std::move(app));
    }
    return out;
}

} // namespace

const std::vector<Benchmark> &
tableIII()
{
    static std::once_flag once;
    static std::vector<Benchmark> table;
    std::call_once(once, [] { table = makeTableIII(); });
    return table;
}

const Benchmark &
benchmarkById(const std::string &id)
{
    for (const auto &b : tableIII()) {
        if (b.id == id)
            return b;
    }
    fatal("unknown benchmark '" + id + "'");
}

const std::vector<EndToEndApp> &
tableIV()
{
    static std::once_flag once;
    static std::vector<EndToEndApp> table;
    std::call_once(once, [] { table = makeTableIV(); });
    return table;
}

lower::Partition
optimalPartition(const Benchmark &bench, const lower::Partition &compiled)
{
    lower::Partition opt;
    opt.domain = compiled.domain;
    opt.accel = compiled.accel;
    opt.loads = compiled.loads;
    opt.stores = compiled.stores;

    if (bench.domain == Domain::GA) {
        // Hand-tuned vertex program: one process_edges + one apply with
        // the native per-edge/per-vertex op counts.
        lower::IrFragment process;
        process.opcode = "process_edges/native";
        process.attrs.dims = {48, 48};
        process.attrs.reduceExtent = 48;
        process.flops = static_cast<int64_t>(
            bench.optimalOpsPerEdge * 48.0 * 48.0);
        opt.fragments.push_back(process);
        lower::IrFragment apply;
        apply.opcode = "apply/native";
        apply.attrs.dims = {48};
        apply.flops =
            static_cast<int64_t>(bench.optimalOpsPerVertex * 48.0);
        opt.fragments.push_back(apply);
        return opt;
    }

    // Expert structure: optimalFragments kernels forming a balanced chain
    // (each depends on the previous via a shared tensor name), no identity
    // moves, the native op count.
    const int64_t per_frag =
        std::max<int64_t>(1, static_cast<int64_t>(
                                 static_cast<double>(bench.optimalFlops) /
                                 bench.profile.scale) /
                                 std::max<int64_t>(bench.optimalFragments,
                                                   1));
    for (int64_t i = 0; i < bench.optimalFragments; ++i) {
        lower::IrFragment frag;
        frag.opcode = "kernel" + std::to_string(i);
        frag.flops = per_frag;
        lower::TensorArg in;
        in.name = "chain" + std::to_string(i);
        in.shape = Shape{1};
        lower::TensorArg out_arg;
        out_arg.name = "chain" + std::to_string(i + 1);
        out_arg.shape = Shape{1};
        frag.inputs.push_back(in);
        frag.outputs.push_back(out_arg);
        if (frag.opcode.rfind("kernel", 0) == 0 && bench.domain == Domain::DL)
            frag.opcode = "conv2d"; // VTA GEMM-core efficiency class
        opt.fragments.push_back(std::move(frag));
    }
    return opt;
}

} // namespace polymath::wl
