#include "lower/compile_cache.h"

#include "core/error.h"
#include "core/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace polymath::lower {

std::string
compileCacheKey(const std::string &source, const ir::BuildOptions &opts,
                Domain default_domain, const AcceleratorRegistry &registry,
                const std::string &salt)
{
    // Field separators use '\x1f' (unit separator) so that no field can
    // run into its neighbor and alias another key.
    std::string key;
    key.reserve(source.size() + registry.keyText().size() + 256);
    key += "src\x1f";
    key += source;
    key += "\x1f""entry\x1f";
    key += opts.entry;
    key += "\x1f""params\x1f";
    for (const auto &[name, value] : opts.paramConsts) {
        key += name;
        key += '=';
        key += std::to_string(value);
        key += ';';
    }
    key += "\x1f""domain\x1f";
    key += lang::toString(default_domain);
    key += "\x1f""registry\x1f";
    key += registry.keyText();
    if (!salt.empty()) {
        key += "\x1f""salt\x1f";
        key += salt;
    }
    return key;
}

uint64_t
contentHash(const std::string &key)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull; // FNV prime
    }
    return h;
}

std::shared_ptr<const CompiledProgram>
CompileCache::getOrCompile(const std::string &key, const CompileFn &compile)
{
    std::promise<std::shared_ptr<const CompiledProgram>> promise;
    Future future;
    uint64_t my_generation = 0;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            countHitLocked(it->second);
            if (it->second.program)
                return it->second.program;
            ++coalesced_;
            future = it->second.future;
        } else {
            ++misses_;
            future = promise.get_future().share();
            my_generation = nextGeneration_++;
            it = entries_.emplace(key, Entry{future, my_generation, {}, {}})
                     .first;
            lru_.push_front(&it->first);
            it->second.lruPos = lru_.begin();
            owner = true;
        }
    }
    if (!owner) {
        static obs::Counter &coalesced =
            obs::MetricsRegistry::global().counter("compile_cache.coalesced");
        coalesced.add(1);
        // May block while the owning thread compiles; rethrows its
        // error. The span makes the blocked wait visible on the
        // worker's wall-clock track.
        obs::Span span("cache:coalesced-wait", "cache");
        return future.get();
    }
    static obs::Counter &misses =
        obs::MetricsRegistry::global().counter("compile_cache.misses");
    misses.add(1);
    try {
        auto program =
            std::make_shared<const CompiledProgram>(compile());
        promise.set_value(program);
        Evicted evicted; // freed after the lock below is released
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = entries_.find(key);
            // The entry may have vanished (clear()) or been replaced by
            // a newer compilation under the same key; only this owner's
            // own entry graduates to "finished" and joins the LRU pool.
            if (it != entries_.end() &&
                it->second.generation == my_generation) {
                it->second.program = program;
                enforceCapacityLocked(evicted);
            }
        }
        return program;
    } catch (...) {
        promise.set_exception(std::current_exception());
        {
            // Evict so a later request can retry instead of replaying
            // the captured exception forever. Guard on the generation:
            // if clear() already dropped this entry and another thread
            // re-inserted a fresh in-flight compilation for the same
            // key, an unconditional erase would drop *that* thread's
            // entry and orphan its waiters' coalescing point.
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = entries_.find(key);
            if (it != entries_.end() &&
                it->second.generation == my_generation) {
                lru_.erase(it->second.lruPos);
                entries_.erase(it);
            }
        }
        throw;
    }
}

std::shared_ptr<const CompiledProgram>
CompileCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.program)
        return nullptr;
    countHitLocked(it->second);
    return it->second.program;
}

void
CompileCache::countHitLocked(Entry &entry)
{
    // Resolved once: a hit holds mutex_, and the registry lookup would
    // build a string and take the registry's own mutex under it.
    static obs::Counter &hits =
        obs::MetricsRegistry::global().counter("compile_cache.hits");
    ++hits_;
    lru_.splice(lru_.begin(), lru_, entry.lruPos);
    hits.add(1);
}

void
CompileCache::enforceCapacityLocked(Evicted &evicted)
{
    if (capacity_ == 0)
        return;
    static obs::Counter &evictions =
        obs::MetricsRegistry::global().counter("compile_cache.evictions");
    auto pos = lru_.end();
    while (entries_.size() > capacity_ && pos != lru_.begin()) {
        --pos;
        auto it = entries_.find(**pos);
        if (it == entries_.end())
            panic("compile cache LRU list references unknown key");
        if (!it->second.program)
            continue; // in-flight: coalescing point, never dropped
        pos = lru_.erase(pos);
        evicted.push_back(std::move(it->second.program));
        entries_.erase(it);
        ++evictions_;
        evictions.add(1);
    }
}

int64_t
CompileCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

int64_t
CompileCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

int64_t
CompileCache::coalesced() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return coalesced_;
}

int64_t
CompileCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

double
CompileCache::hitRate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t total = hits_ + misses_;
    return total > 0 ? static_cast<double>(hits_) /
                           static_cast<double>(total)
                     : 0.0;
}

size_t
CompileCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
CompileCache::setCapacity(size_t entries)
{
    Evicted evicted; // declared first, so freed after the lock is released
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = entries;
    enforceCapacityLocked(evicted);
}

size_t
CompileCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

void
CompileCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    // nextGeneration_ is deliberately *not* reset: generation ids must
    // stay unique across clears so an owner whose entry was cleared can
    // never mistake a re-inserted entry for its own.
    hits_ = 0;
    misses_ = 0;
    coalesced_ = 0;
    evictions_ = 0;
}

CompileCache &
CompileCache::global()
{
    static CompileCache cache;
    return cache;
}

} // namespace polymath::lower
