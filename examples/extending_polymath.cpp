/**
 * @file
 * Extending PolyMath with a new accelerator — the paper's fourth claim:
 * the stack is modular enough that the community can add targets without
 * touching the compiler.
 *
 * This example defines a toy systolic GEMM ASIC ("Systolic256"), registers
 * it for the Data Analytics domain with `mvmul` as its preferred
 * component, and compiles a program containing matrix-vector products plus
 * element-wise post-processing. Algorithm 1 keeps `mvmul` at component
 * granularity for the new target while the remaining statements lower to
 * TABLA's single-op dataflow — two accelerators sharing one domain, chosen
 * per kernel, with no change to Algorithms 1/2.
 */
#include <cstdio>

#include "soc/soc.h"
#include "srdfg/builder.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

/** A 64x64 weight-stationary systolic array at 800 MHz. */
class Systolic256 : public target::Backend
{
  public:
    Systolic256()
        : Backend("Systolic256", lang::Domain::DA, systolicConfig())
    {
    }

    static target::MachineConfig systolicConfig()
    {
        target::MachineConfig m;
        m.name = "Systolic256";
        m.freqGhz = 0.8;
        m.watts = 2.2;
        m.computeUnits = 4096; // 64x64 MACs
        m.flopsPerUnitCycle = 2; // MACs
        m.dramGBs = 25.6;
        m.onChipBytes = 2ll * 1024 * 1024;
        m.launchOverheadUs = 0.5;
        return m;
    }

    lower::AcceleratorSpec spec() const override
    {
        lower::AcceleratorSpec s;
        s.name = name();
        s.domain = domain();
        // The whole point: this target consumes matvecs *whole*. The
        // srDFG's recursive granularity means no new compiler code is
        // needed for that — Algorithm 1 simply does not splice them.
        const ir::Op mvmul = ir::Op::intern("mvmul");
        s.supportedOps = {mvmul, ir::OpCode::Const, ir::OpCode::Identity};
        s.preferredComponents = {mvmul};
        s.translators[mvmul] = [](const ir::Graph &g,
                                  const ir::Node &n) {
            auto frag = lower::genericTranslate(g, n);
            frag.opcode = "systolic/gemv";
            return frag;
        };
        return s;
    }

  protected:
    // Pricing reads only the machine-independent facts analyze()
    // gathered about the partition: this model needs each fragment's
    // flops and the DMA split, which every analysis carries, so it does
    // not override analyzeImpl().
    target::PerfReport simulateImpl(
        const target::PartitionAnalysis &analysis,
        const target::MachineConfig &m,
        const target::WorkloadProfile &profile) const override
    {
        target::PerfReport r;
        r.machine = name();
        // Weight-stationary wavefront: rows stream through the array.
        // The gemvs are the fragments with arithmetic; the const and
        // identity fragments the spec also accepts have none.
        double cycles = 0.0;
        for (const auto &f : analysis.fragments) {
            if (f.move || f.flops == 0)
                continue;
            cycles += static_cast<double>(f.flops) /
                          (2.0 * static_cast<double>(m.computeUnits)) +
                      32.0; // array fill
        }
        const double inv = static_cast<double>(profile.invocations);
        r.computeSeconds = cycles / (m.freqGhz * 1e9) * inv;
        const target::DmaBreakdown &dma = analysis.dma;
        r.dramBytes =
            dma.oneTimeBytes +
            static_cast<int64_t>(static_cast<double>(dma.perRunBytes) *
                                 inv);
        r.memorySeconds =
            static_cast<double>(r.dramBytes) / (m.dramGBs * 1e9);
        r.seconds = std::max(r.computeSeconds, r.memorySeconds);
        r.flops = static_cast<int64_t>(
            static_cast<double>(analysis.flops) * inv);
        r.joules = m.watts * r.seconds;
        return r;
    }
};

const char *const kProgram = R"(
mvmul(input float A[m][n], input float B[n], output float C[m]) {
    index i[0:n-1], j[0:m-1];
    C[j] = sum[i](A[j][i]*B[i]);
}
main(param float A[1024][1024], input float x[1024],
     param float bias[1024], output float y[1024]) {
    index j[0:1023];
    float t[1024];
    DA: mvmul(A, x, t);
    y[j] = sigmoid(t[j] + bias[j]);
}
)";

} // namespace

int
main()
{
    // 1. Standard registry + the new target. Registration order matters
    //    only for domain defaults; Systolic256 is selected through its
    //    preferred component.
    const Systolic256 systolic;
    std::vector<const target::Backend *> backends =
        target::standardBackends();
    backends.push_back(&systolic);
    lower::AcceleratorRegistry registry;
    for (const target::Backend *backend : backends)
        registry.add(backend->spec());

    // 2. Compile: same Algorithms 1/2, zero new compiler code.
    const auto compiled = wl::compileBenchmark(kProgram, {}, registry,
                                               lang::Domain::DA);
    std::printf("partitions:\n");
    for (const auto &partition : compiled.partitions) {
        std::printf("  %-12s %zu fragments\n", partition.accel.c_str(),
                    partition.fragments.size());
        for (const auto &frag : partition.fragments) {
            if (frag.opcode.rfind("systolic", 0) == 0)
                std::printf("    %s\n", frag.str().c_str());
        }
    }

    // 3. Simulate the heterogeneous schedule on the SoC.
    const soc::SocRuntime runtime(target::socConfig(), {}, backends);
    target::WorkloadProfile profile;
    profile.invocations = 2000;
    const auto with_new = runtime.execute(compiled, profile);

    // Baseline: the same program with everything on TABLA (no Systolic256
    // registered).
    const auto tabla_only = wl::compileBenchmark(
        kProgram, {}, target::standardRegistry(), lang::Domain::DA);
    soc::SocRuntime standard;
    const auto without = standard.execute(tabla_only, profile);

    std::printf("\nTABLA-only        : %s\n", without.total.str().c_str());
    std::printf("with Systolic256  : %s\n", with_new.total.str().c_str());
    std::printf("adding the accelerator bought %.2fx runtime, %.2fx "
                "energy\n",
                target::speedup(without.total, with_new.total),
                target::energyReduction(without.total, with_new.total));
    return 0;
}
