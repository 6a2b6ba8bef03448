#include "targets/vta/vta.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"

namespace polymath::target {

namespace {

/** Layer-granularity operators VTA's instruction set covers. These are
 *  component names in the DNN PMLang programs. */
const char *const kLayerOps[] = {
    "conv2d", "conv2d_dw", "dense", "maxpool", "avgpool",
    "batchnorm", "relu_layer", "add_layer", "flatten",
};

/** Layers that run on the GEMM core; the other layers are vector ops. */
bool
isGemmLayer(std::string_view opcode)
{
    return opcode == "conv2d" || opcode == "conv2d_dw" ||
           opcode == "dense";
}

/** Fractions of peak: GEMM-core layers run at high efficiency; vector
 *  ops (pool, activation, residual) retire one lane-row per cycle. */
constexpr double kGemmEff = 0.35;
constexpr double kVectorEff = 0.10;

} // namespace

lower::AcceleratorSpec
VtaBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    for (const char *op : kLayerOps)
        s.supportedOps.insert(op);
    // Residual adds and activation maps appear between layers.
    using ir::OpCode;
    s.supportedOps.merge({OpCode::Add, OpCode::Relu, OpCode::Identity,
                          OpCode::Const, OpCode::Max, OpCode::Sum,
                          OpCode::Mul, OpCode::Sub, OpCode::Div,
                          OpCode::Sqrt, OpCode::Exp});
    return s;
}

void
VtaBackend::analyzeImpl(const lower::Partition &partition,
                        PartitionAnalysis &a) const
{
    a.layers.reserve(a.fragments.size());
    for (size_t i = 0; i < a.fragments.size(); ++i) {
        PartitionAnalysis::Fragment &f = a.fragments[i];
        if (f.move)
            continue;
        const lower::IrFragment &frag = partition.fragments[i];
        f.gemm = isGemmLayer(frag.opcode);
        a.layers.push_back({static_cast<double>(f.flops), f.gemm});
        for (const auto &in : frag.inputs) {
            (in.kind == ir::EdgeKind::Param ? a.weightBytes
                                            : a.activationBytes) +=
                static_cast<double>(in.shape.numel());
        }
        for (const auto &out : frag.outputs)
            a.activationBytes += static_cast<double>(out.shape.numel());
    }
}

PerfReport
VtaBackend::simulateImpl(const PartitionAnalysis &analysis,
                         const MachineConfig &m,
                         const WorkloadProfile &profile) const
{
    PerfReport r;
    r.machine = name();

    const double peak = m.peakFlops(); // 256 MACs * 2 * freq
    const double gemm_rate = peak * kGemmEff;
    const double vector_rate = peak * kVectorEff;

    double compute_s = 0.0;
    for (const auto &layer : analysis.layers)
        compute_s += layer.flops / (layer.gemm ? gemm_rate : vector_rate);
    const auto layers = static_cast<int64_t>(analysis.layers.size());
    // int8 datapath: one byte per element, so the analysis's element
    // counts are bytes.
    const double weight_bytes = analysis.weightBytes;
    const double act_bytes = analysis.activationBytes;
    const double invocations = static_cast<double>(profile.invocations);
    compute_s *= profile.scale * invocations;

    // Weights exceed the on-chip buffer for real CNNs: streamed per run.
    const bool weights_resident =
        weight_bytes <= static_cast<double>(m.onChipBytes) * 0.5;
    const double weight_stream =
        weights_resident ? weight_bytes
                         : weight_bytes * invocations;
    r.dramBytes = static_cast<int64_t>(
        (weight_stream + act_bytes * invocations) * profile.scale);
    r.memorySeconds = static_cast<double>(r.dramBytes) / (m.dramGBs * 1e9);

    r.computeSeconds = compute_s;
    r.overheadSeconds = m.launchOverheadUs * 1e-6 *
                        static_cast<double>(layers) * invocations;
    // Per-layer: load -> compute -> store with double buffering.
    r.seconds = std::max(r.computeSeconds, r.memorySeconds) +
                r.overheadSeconds;
    r.flops = static_cast<int64_t>(
        static_cast<double>(analysis.flops) * profile.scale *
        invocations);
    r.utilization =
        r.seconds > 0
            ? static_cast<double>(r.flops) / (peak * r.seconds)
            : 0.0;
    r.joules = m.watts * r.seconds;

    if (CostLedger *ledger = beginLedger(r, analysis)) {
        // Layer time is a plain sum of flops/(peak*eff) terms, so the
        // per-layer attribution is exact. DMA splits by traffic class:
        // weights (resident or re-streamed) vs. activations.
        for (size_t i = 0; i < analysis.fragments.size(); ++i) {
            const auto &f = analysis.fragments[i];
            if (f.move)
                continue;
            const double raw = static_cast<double>(f.flops) /
                               (f.gemm ? gemm_rate : vector_rate) *
                               profile.scale * invocations;
            ledger->addFragment(analysis, i, static_cast<double>(f.flops),
                                raw);
        }
        const double bw = m.dramGBs * 1e9;
        if (weight_stream > 0) {
            CostEntry &w = ledger->add(weights_resident
                                           ? "dma:weights (resident)"
                                           : "dma:weights (streamed)",
                                       CostPhase::Dma);
            w.dramBytes = weight_stream * profile.scale;
            w.seconds = w.dramBytes / bw;
            w.bound = BoundClass::Memory;
        }
        if (act_bytes > 0) {
            CostEntry &a = ledger->add("dma:activations", CostPhase::Dma);
            a.dramBytes = act_bytes * invocations * profile.scale;
            a.seconds = a.dramBytes / bw;
            a.bound = BoundClass::Memory;
        }
        ledger->addOverhead(r.overheadSeconds);
        finalizeLedger(r, m);
    }
    return r;
}

} // namespace polymath::target
