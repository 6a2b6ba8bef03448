#include "targets/deco/chain_mapper.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/error.h"
#include "core/strings.h"
#include "targets/common/backend.h"

namespace polymath::target {

double
ChainMap::avgChainLength() const
{
    if (chains.empty())
        return 0.0;
    size_t total = 0;
    for (const auto &chain : chains)
        total += chain.ops.size();
    return static_cast<double>(total) /
           static_cast<double>(chains.size());
}

std::string
ChainMap::str() const
{
    std::string out =
        format("%zu chains over %lld waves, %lld cycles (+%lld fill), DSP "
               "utilization ",
               chains.size(), static_cast<long long>(waves),
               static_cast<long long>(cycles),
               static_cast<long long>(fillCycles)) +
        formatF(dspUtilization * 100.0, 1) + "%\n";
    for (const auto &chain : chains) {
        out += format("  wave %lld, %lld elems:",
                      static_cast<long long>(chain.wave),
                      static_cast<long long>(chain.elements));
        for (const auto *op : chain.ops)
            out += " " + op->opcode;
        out += "\n";
    }
    return out;
}

ChainMap
mapChains(const lower::Partition &partition, const ChainConfig &config)
{
    if (config.dspBlocks <= 0)
        panic("mapChains(): bad configuration");

    // Compute fragments, their producers/consumers by tensor name.
    struct Item
    {
        const lower::IrFragment *frag = nullptr;
        int64_t elements = 1;
        std::vector<size_t> producers;
        int consumers = 0;
        int chain = -1;
    };
    std::vector<Item> items;
    std::map<std::string, size_t> writer;
    for (const auto &frag : partition.fragments) {
        if (frag.isTransfer())
            continue;
        if (frag.flops <= 0 && !frag.attrs.moveElems)
            continue;
        Item item;
        item.frag = &frag;
        int64_t elements = 1;
        for (const int64_t extent : frag.attrs.dims)
            elements *= extent;
        item.elements = std::max<int64_t>(elements, 1);
        for (const auto &in : frag.inputs) {
            auto it = writer.find(in.name);
            if (it != writer.end())
                item.producers.push_back(it->second);
        }
        const size_t index = items.size();
        items.push_back(std::move(item));
        for (const auto &out : frag.outputs)
            writer[out.name] = index;
    }
    for (const auto &item : items) {
        for (size_t p : item.producers)
            ++items[p].consumers;
    }

    ChainMap result;
    if (items.empty())
        return result;

    // Greedy chain formation: extend a chain through its unique consumer
    // while the element count matches (II=1 fusion is only legal when the
    // stages stream the same index space).
    std::vector<int> chain_of(items.size(), -1);
    for (size_t i = 0; i < items.size(); ++i) {
        if (chain_of[i] >= 0)
            continue;
        // Only start a chain at a fragment that is not the fusable
        // continuation of another (its single producer would claim it).
        bool is_continuation = false;
        if (items[i].producers.size() == 1) {
            const size_t p = items[i].producers.front();
            is_continuation = items[p].consumers == 1 &&
                              items[p].elements == items[i].elements;
        }
        if (is_continuation)
            continue;
        MappedChain chain;
        size_t cur = i;
        while (true) {
            chain_of[cur] = static_cast<int>(result.chains.size());
            chain.ops.push_back(items[cur].frag);
            chain.elements =
                std::max(chain.elements, items[cur].elements);
            // Find the unique fusable consumer.
            size_t next = items.size();
            int found = 0;
            for (size_t j = 0; j < items.size(); ++j) {
                if (chain_of[j] >= 0)
                    continue;
                for (size_t p : items[j].producers) {
                    if (p == cur && items[cur].consumers == 1 &&
                        items[j].elements == items[cur].elements &&
                        items[j].producers.size() == 1) {
                        next = j;
                        ++found;
                    }
                }
            }
            if (found != 1)
                break;
            cur = next;
        }
        result.chains.push_back(std::move(chain));
    }
    // Any fragment skipped as a "continuation" whose producer chain ended
    // elsewhere becomes its own chain.
    for (size_t i = 0; i < items.size(); ++i) {
        if (chain_of[i] >= 0)
            continue;
        MappedChain chain;
        chain.ops.push_back(items[i].frag);
        chain.elements = items[i].elements;
        chain_of[i] = static_cast<int>(result.chains.size());
        result.chains.push_back(std::move(chain));
    }

    // Chain DAG waves: a chain waits for every producer chain.
    std::vector<int64_t> wave(result.chains.size(), 0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < items.size(); ++i) {
            for (size_t p : items[i].producers) {
                if (chain_of[p] == chain_of[i])
                    continue;
                const auto ci = static_cast<size_t>(chain_of[i]);
                const auto cp = static_cast<size_t>(chain_of[p]);
                if (wave[ci] < wave[cp] + 1) {
                    wave[ci] = wave[cp] + 1;
                    changed = true;
                }
            }
        }
    }
    for (size_t c = 0; c < result.chains.size(); ++c)
        result.chains[c].wave = wave[c];

    // Execute wave by wave: concurrent chains share the DSP blocks.
    int64_t max_wave = 0;
    for (int64_t w : wave)
        max_wave = std::max(max_wave, w);
    result.waves = max_wave + 1;
    double busy_blocks = 0.0;
    for (int64_t w = 0; w <= max_wave; ++w) {
        int64_t depth_sum = 0;
        for (const auto &chain : result.chains) {
            if (chain.wave == w)
                depth_sum += static_cast<int64_t>(chain.ops.size());
        }
        if (depth_sum == 0)
            continue;
        // Lanes replicate whole chains; each lane consumes `depth` blocks
        // and retires one element per cycle.
        int64_t wave_cycles = 0;
        for (const auto &chain : result.chains) {
            if (chain.wave != w)
                continue;
            const int64_t depth =
                static_cast<int64_t>(chain.ops.size());
            const int64_t lanes = std::max<int64_t>(
                1, (config.dspBlocks * depth / depth_sum) / depth);
            wave_cycles = std::max(
                wave_cycles, (chain.elements + lanes - 1) / lanes);
            result.fillCycles +=
                depth * config.fillPerStage;
            busy_blocks += static_cast<double>(depth * lanes);
        }
        result.cycles += wave_cycles;
    }
    result.dspUtilization =
        result.waves > 0
            ? busy_blocks / (static_cast<double>(config.dspBlocks) *
                             static_cast<double>(result.waves))
            : 0.0;
    result.dspUtilization = std::min(result.dspUtilization, 1.0);
    return result;
}

} // namespace polymath::target
