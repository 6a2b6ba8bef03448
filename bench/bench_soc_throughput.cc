/**
 * @file
 * Streaming-SoC throughput/latency sweep (docs/RESILIENCE.md, "Online
 * rescheduling & load shedding").
 *
 * The Table III workloads become a job mix for soc::StreamScheduler: jobs
 * arrive as a Poisson stream cycling over the templates, and the sweep
 * varies the offered load relative to the mix's mean fault-free service
 * time (rho = 0.5 / 1.0 / 2.0), with and without chaos-level fault
 * injection (DMA 10%, watchdog 5%, accelerator loss 2% — the
 * bench_resilience rate mapping at r = 0.1). Reported per cell:
 * sustained jobs/s, p50/p99/p999 stream latency, load shed (admission
 * rejections + deadline sheds), online migrations, and accelerator
 * availability.
 *
 * Everything is virtual-time simulation from seeded draws, so the table
 * is byte-identical across runs and jobs counts; `--json` writes the
 * numbers as a polymath-bench/1 artifact for the tools/check.sh
 * perf-regression gate (bench/baselines/soc_throughput.json).
 */
#include <cstdio>

#include "core/strings.h"
#include "driver.h"
#include "report/report.h"
#include "soc/stream.h"
#include "targets/common/backend.h"
#include "workloads/suite.h"

using namespace polymath;

namespace {

constexpr uint64_t kSeed = 0x5eed;
constexpr int kJobs = 120;

} // namespace

int
main(int argc, char **argv)
{
    const bench::Driver driver(argc, argv);
    const auto &registry = target::standardRegistry();
    const auto workloads = driver.compileTableIII(registry);

    soc::SocRuntime runtime;
    std::vector<soc::StreamJob> templates;
    double mean_service = 0.0;
    for (const auto &w : workloads) {
        soc::StreamJob job;
        job.name = w.bench->id;
        job.program = w.program.get();
        job.profile = w.bench->profile;
        job.hostEff = {{w.bench->accel, w.bench->cpuEff}};
        mean_service +=
            runtime.estimate(*job.program, job.profile, {}, job.hostEff)
                .total.seconds;
        templates.push_back(std::move(job));
    }
    mean_service /= static_cast<double>(templates.size());

    // Offered load relative to the mix's mean service time; past
    // saturation the deadline policy starts shedding queued work.
    const double kLoads[] = {0.5, 1.0, 2.0};
    const double kFaultRates[] = {0.0, 0.1};
    struct Cell
    {
        double load = 0.0;
        double faultRate = 0.0;
    };
    std::vector<Cell> cells;
    for (const double load : kLoads) {
        for (const double rate : kFaultRates)
            cells.push_back(Cell{load, rate});
    }

    const auto rows = driver.map(
        static_cast<int64_t>(cells.size()), [&](int64_t ci) {
            const Cell cell = cells[static_cast<size_t>(ci)];
            soc::StreamConfig config;
            config.arrival = soc::ArrivalModel::Poisson;
            config.jobs = kJobs;
            config.arrivalRate = cell.load / mean_service;
            config.seed = kSeed;
            // Shed jobs whose queueing pushes them past 10x their own
            // fault-free estimate — under overload the long-template
            // backends saturate and start dropping work.
            config.deadlineFactor = 10.0;
            config.deadlinePolicy = soc::DeadlinePolicy::Shed;
            if (cell.faultRate > 0.0)
                config.faults =
                    soc::FaultConfig::forRate(cell.faultRate, kSeed);
            const soc::SocRuntime rt;
            const soc::StreamScheduler scheduler(rt, config);
            const soc::StreamReport report = scheduler.run(templates);

            const int64_t shed = report.rejected + report.shed;
            const std::string id = "load=" + formatF(cell.load, 2) +
                                   ",faults=" +
                                   formatF(cell.faultRate, 2);
            driver.record(id, "jobs_per_sec",
                          report.throughputJobsPerSecond());
            driver.record(id, "p50_ms",
                          report.p50LatencySeconds * 1e3);
            driver.record(id, "p99_ms",
                          report.p99LatencySeconds * 1e3);
            driver.record(id, "p999_ms",
                          report.p999LatencySeconds * 1e3);
            driver.record(id, "shed", static_cast<double>(shed));
            driver.record(id, "migrations",
                          static_cast<double>(report.migrations));
            driver.record(id, "availability",
                          report.reliability.availability());
            return std::vector<std::string>{
                formatF(cell.load, 2),
                formatF(cell.faultRate, 2),
                formatF(report.throughputJobsPerSecond(), 2),
                formatF(report.p50LatencySeconds * 1e3, 3),
                formatF(report.p99LatencySeconds * 1e3, 3),
                formatF(report.p999LatencySeconds * 1e3, 3),
                std::to_string(shed),
                std::to_string(report.migrations),
                formatF(report.reliability.availability(), 3)};
        });

    report::Table table({"Load", "Fault rate", "Jobs/s", "p50 ms",
                         "p99 ms", "p999 ms", "Shed", "Migrations",
                         "Availability"});
    for (const auto &row : rows)
        table.addRow(row);
    std::printf("Streaming SoC throughput: %d Poisson jobs over the "
                "Table III mix (mean service %s s), seed 0x%llx\n%s\n",
                kJobs, formatF(mean_service, 6).c_str(),
                static_cast<unsigned long long>(kSeed),
                table.str().c_str());
    std::printf("Load is offered rate x mean fault-free service time; "
                "faults follow the resilience mapping (dma=r, "
                "watchdog=r/2, accel=r/5).\n");
    driver.reportStats();
    return 0;
}
