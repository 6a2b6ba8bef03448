#include "targets/graphicionado/graphicionado.h"

#include <algorithm>
#include <cmath>

#include "targets/common/cost_ledger.h"
#include "targets/common/op_sets.h"

namespace polymath::target {

lower::AcceleratorSpec
GraphicionadoBackend::spec() const
{
    lower::AcceleratorSpec s;
    s.name = name();
    s.domain = domain();
    using ir::OpCode;
    ir::OpSet extra = {OpCode::Sum, OpCode::Prod};
    extra.insert("@custom_reduce");
    s.supportedOps = opsUnion(scalarAluOps(), extra);
    s.supportedOps.merge(groupOps());

    // Vertex-program rendering: neighbor folds become Process/Reduce
    // pipeline blocks, vertex-wide maps become Apply blocks (Fig. 6c).
    s.translators[OpCode::Sum] = s.translators[OpCode::Min] =
        s.translators[OpCode::Max] =
        [](const ir::Graph &g, const ir::Node &n) {
            auto frag = lower::genericTranslate(g, n);
            frag.opcode = "process_edges/" + n.op.str();
            return frag;
        };
    return s;
}

void
GraphicionadoBackend::analyzeImpl(const lower::Partition &partition,
                                  PartitionAnalysis &a) const
{
    for (size_t i = 0; i < a.fragments.size(); ++i) {
        PartitionAnalysis::Fragment &f = a.fragments[i];
        if (f.move)
            continue;
        f.edge = isEdgeDomain(partition.fragments[i]);
        f.opsPerPoint = opsPerPoint(partition.fragments[i]);
        (f.edge ? a.opsPerEdge : a.opsPerVertex) += f.opsPerPoint;
    }
}

PerfReport
GraphicionadoBackend::simulateImpl(const PartitionAnalysis &analysis,
                                   const MachineConfig &m,
                                   const WorkloadProfile &profile) const
{
    PerfReport r;
    r.machine = name();

    // Per-edge and per-vertex op counts of the compiled instance, applied
    // to the deployed dataset's V/E.
    const double ops_per_edge = analysis.opsPerEdge;
    const double ops_per_vertex = analysis.opsPerVertex;
    const double vertices = static_cast<double>(
        std::max<int64_t>(profile.vertices, 1));
    const double edges =
        static_cast<double>(std::max<int64_t>(profile.edges, 1));
    const double iters = static_cast<double>(profile.invocations);

    // Eight pipelines; each retires one edge per cycle while the per-edge
    // op chain fits its stage depth (the pipeline executes the chain in a
    // spatially unrolled fashion).
    constexpr double kStageDepth = 8.0;
    // Atomic-update serialization on skewed degree distributions,
    // calibrated against the trace-driven simulator (pipeline_sim.h) on
    // the Table III R-MAT graphs at the baseline 32 banks per pipe.
    // Conflicts thin out as banks are added (sqrt birthday-bound
    // scaling); exactly 1.3 at the Table VI default.
    const double conflict_factor =
        1.3 * std::sqrt(32.0 / static_cast<double>(m.banksPerPipe));
    const double pipes = static_cast<double>(m.computeUnits);
    const double edge_cycles =
        edges * std::ceil(std::max(ops_per_edge, 1.0) / kStageDepth) *
        conflict_factor / pipes;
    const double vertex_cycles =
        vertices * std::ceil(std::max(ops_per_vertex, 1.0) / kStageDepth) /
        pipes;

    // Vertex properties resident on-chip? (16 B per vertex: prop + temp.)
    const double vertex_bytes = vertices * 16.0;
    const bool resident =
        vertex_bytes <= static_cast<double>(m.onChipBytes);
    // Off-chip random vertex accesses throttle the pipelines.
    const double random_penalty = resident ? 1.0 : 3.5;

    const double hz = m.freqGhz * 1e9;
    double cycles = (edge_cycles * random_penalty + vertex_cycles) * iters;
    r.computeSeconds = cycles / hz;

    // Edge stream from DRAM every iteration (8 B per edge), vertex
    // properties once.
    r.dramBytes = static_cast<int64_t>(edges * 8.0 * iters +
                                       vertex_bytes);
    r.memorySeconds = static_cast<double>(r.dramBytes) / (m.dramGBs * 1e9);
    r.overheadSeconds = m.launchOverheadUs * 1e-6 * iters;

    r.seconds = std::max(r.computeSeconds, r.memorySeconds) +
                r.overheadSeconds;
    r.flops = static_cast<int64_t>(
        (edges * ops_per_edge + vertices * ops_per_vertex) * iters);
    // Pipelines retire several ops per edge per cycle; report utilization
    // against that effective capability, capped at 1.
    r.utilization =
        r.seconds > 0
            ? std::min(1.0, static_cast<double>(r.flops) /
                                (m.peakFlops() * kStageDepth * r.seconds))
            : 0.0;
    r.joules = m.watts * r.seconds;

    if (CostLedger *ledger = beginLedger(r, analysis)) {
        // The model prices two phase pools (edge pipeline, vertex apply);
        // each fragment's raw weight is its ops-per-point share of its
        // phase's pool. Flop weights are re-derived on the deployed
        // dataset so edge- and vertex-domain fragments scale by E and V
        // respectively, matching r.flops.
        const double edge_pool = edge_cycles * random_penalty * iters / hz;
        const double vertex_pool = vertex_cycles * iters / hz;
        double edge_attr = 0.0;
        double vertex_attr = 0.0;
        for (size_t i = 0; i < analysis.fragments.size(); ++i) {
            const auto &f = analysis.fragments[i];
            if (f.move)
                continue;
            const double ops = f.opsPerPoint;
            double raw = 0.0;
            if (f.edge && ops_per_edge > 0)
                raw = edge_pool * ops / ops_per_edge;
            else if (!f.edge && ops_per_vertex > 0)
                raw = vertex_pool * ops / ops_per_vertex;
            ledger->addFragment(analysis, i,
                                ops * (f.edge ? edges : vertices) * iters,
                                raw);
            (f.edge ? edge_attr : vertex_attr) += raw;
        }
        // The max(ops, 1) pipeline floor leaves pool time no fragment
        // claims (pure traversal with no per-point arithmetic).
        ledger->addComputeResidual("edge-pipeline traversal floor",
                                   edge_pool - edge_attr);
        ledger->addComputeResidual("vertex-apply traversal floor",
                                   vertex_pool - vertex_attr);
        ledger->addDma(vertex_bytes, edges * 8.0 * iters, m.dramGBs);
        ledger->addOverhead(r.overheadSeconds);
        finalizeLedger(r, m);
    }
    return r;
}

} // namespace polymath::target
