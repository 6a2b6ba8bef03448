#include "targets/tabla/scheduler.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "core/error.h"
#include "core/strings.h"
#include "targets/common/backend.h"

namespace polymath::target {

std::string
ScheduleResult::str() const
{
    std::string out = format("makespan %lld cycles, bus %lld, occupancy ",
                             static_cast<long long>(cycles),
                             static_cast<long long>(busCycles)) +
                      formatF(peOccupancy * 100.0, 1) + "%\n";
    for (const auto &sf : fragments) {
        out += format("  [%6lld, %6lld) %s\n",
                      static_cast<long long>(sf.startCycle),
                      static_cast<long long>(sf.finishCycle),
                      sf.fragment->opcode.c_str());
    }
    return out;
}

ScheduleResult
listSchedule(const lower::Partition &partition, const ScheduleConfig &config)
{
    if (config.pes <= 0 || config.busWordsPerCycle <= 0)
        panic("listSchedule(): bad configuration");

    // Collect compute fragments and their dependence structure (by
    // tensor-name dataflow, matching analyzeLevels()).
    struct Item
    {
        const lower::IrFragment *frag = nullptr;
        int64_t work = 0;       ///< remaining work units
        int64_t busWords = 0;   ///< operand words fetched before start
        std::vector<size_t> deps;
        int pendingDeps = 0;
        int64_t readyCycle = 0;
        int64_t startCycle = -1;
        int64_t finishCycle = -1;
        bool fetched = false;
        bool done = false;
    };
    std::vector<Item> items;
    std::map<std::string, size_t> last_writer;
    std::set<std::string> buffered; // tensors already on-chip
    for (const auto &frag : partition.fragments) {
        if (frag.isTransfer())
            continue;
        Item item;
        item.frag = &frag;
        item.work = std::max<int64_t>(fragmentWork(frag), 1);
        for (const auto &in : frag.inputs) {
            auto it = last_writer.find(in.name);
            if (it != last_writer.end()) {
                // Produced on the array: forwarded, no bus traffic.
                item.deps.push_back(it->second);
                ++item.pendingDeps;
            } else if (buffered.insert(in.name).second) {
                // First consumer streams the tensor in; later consumers
                // read the on-chip buffer.
                item.busWords += in.shape.numel();
            }
        }
        const size_t index = items.size();
        items.push_back(std::move(item));
        for (const auto &out : frag.outputs)
            last_writer[out.name] = index;
    }

    ScheduleResult result;
    if (items.empty())
        return result;

    // Consumers, for wakeups.
    std::vector<std::vector<size_t>> consumers(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
        for (size_t d : items[i].deps)
            consumers[d].push_back(i);
    }

    int64_t now = 0;
    int64_t bus_free = 0;
    int64_t total_work = 0;
    size_t remaining = items.size();
    for (const auto &item : items)
        total_work += item.work;

    while (remaining > 0) {
        // Start every ready, unfetched item: serialize its operand fetch
        // on the shared bus, then dispatch.
        std::vector<size_t> running;
        for (size_t i = 0; i < items.size(); ++i) {
            auto &item = items[i];
            if (item.done || item.pendingDeps > 0)
                continue;
            if (!item.fetched) {
                const int64_t fetch =
                    (item.busWords + config.busWordsPerCycle - 1) /
                    config.busWordsPerCycle;
                const int64_t begin =
                    std::max({now, bus_free, item.readyCycle});
                bus_free = begin + fetch;
                result.busCycles += fetch;
                item.startCycle = bus_free + config.issueLatency;
                item.fetched = true;
            }
            if (item.startCycle <= now)
                running.push_back(i);
        }

        if (running.empty()) {
            // Jump to the next start event.
            int64_t next = std::numeric_limits<int64_t>::max();
            for (const auto &item : items) {
                if (!item.done && item.pendingDeps == 0 && item.fetched)
                    next = std::min(next, item.startCycle);
            }
            if (next == std::numeric_limits<int64_t>::max())
                panic("listSchedule(): deadlock (cyclic fragments?)");
            now = next;
            continue;
        }

        // Fair-share the PE array among running fragments; advance to the
        // earliest finish at the current allocation.
        const int64_t share = std::max<int64_t>(
            1, config.pes / static_cast<int64_t>(running.size()));
        int64_t step = std::numeric_limits<int64_t>::max();
        for (size_t i : running) {
            const int64_t need =
                (items[i].work + share - 1) / share;
            step = std::min(step, need);
        }
        // Also stop at the next fetched-but-not-started fragment.
        for (const auto &item : items) {
            if (!item.done && item.fetched && item.startCycle > now)
                step = std::min(step, item.startCycle - now);
        }
        step = std::max<int64_t>(step, 1);

        for (size_t i : running) {
            auto &item = items[i];
            item.work -= share * step;
            if (item.work <= 0) {
                item.done = true;
                item.finishCycle = now + step;
                if (item.frag->attrs.reduceExtent)
                    item.finishCycle += config.reduceTreeLatency;
                --remaining;
                for (size_t c : consumers[i]) {
                    if (--items[c].pendingDeps == 0)
                        items[c].readyCycle = item.finishCycle;
                }
            }
        }
        now += step;
        // Account deferred reduce-tree latencies in the clock.
        for (size_t i : running) {
            if (items[i].done)
                now = std::max(now, items[i].finishCycle);
        }
    }

    int64_t makespan = 0;
    for (const auto &item : items) {
        makespan = std::max(makespan, item.finishCycle);
        ScheduledFragment sf;
        sf.fragment = item.frag;
        sf.readyCycle = item.readyCycle;
        sf.startCycle = item.startCycle;
        sf.finishCycle = item.finishCycle;
        result.fragments.push_back(sf);
    }
    result.cycles = makespan;
    result.peOccupancy =
        makespan > 0 ? static_cast<double>(total_work) /
                           (static_cast<double>(config.pes) *
                            static_cast<double>(makespan))
                     : 0.0;
    return result;
}

} // namespace polymath::target
