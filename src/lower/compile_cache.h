/**
 * @file
 * Content-addressed compile cache for the parallel suite driver and the
 * pmcd compile service.
 *
 * The PMLang -> srDFG -> lower -> translate chain is pure: its output is
 * fully determined by the source text, the build options, the default
 * domain, and the registry's op-sets. The cache exploits that by keying
 * memoized CompiledPrograms on exactly those ingredients, so repeated
 * compilations of one benchmark (fault-sweep repetitions, multiple
 * figures over the same Table III suite, repeated pmc inputs, repeated
 * service requests) pay the pipeline cost once.
 *
 * Thread-safety: getOrCompile() is safe to call concurrently, and
 * concurrent requests for the same key are coalesced (single-flight) —
 * one caller compiles, the rest block on the shared future and count as
 * hits. Cached programs are immutable (shared_ptr<const CompiledProgram>),
 * which is what makes sharing across driver threads sound; this is also
 * why compileProgram() must stay re-entrant (see DESIGN.md).
 *
 * Lifetime: a bench run dies with its process, but the pmcd daemon does
 * not, so the cache is optionally bounded (setCapacity(); `pmcd
 * --cache-entries` for the process-wide instance). Eviction is
 * LRU over *finished* entries only — an in-flight compilation is never
 * dropped, because coalesced waiters hold its future and a re-request
 * must keep coalescing onto it rather than compiling again.
 */
#ifndef POLYMATH_LOWER_COMPILE_CACHE_H_
#define POLYMATH_LOWER_COMPILE_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lower/compile.h"
#include "srdfg/builder.h"

namespace polymath::lower {

/**
 * Canonical cache key for one compilation: a deterministic rendering of
 * (source text, build options, default domain, registry op-sets). Two
 * compilations with equal keys produce bit-identical CompiledPrograms.
 *
 * @p salt distinguishes compilations whose inputs are identical but
 * whose downstream processing differs — e.g. the pmcd optimize flag. A
 * non-empty salt is appended as one more '\x1f'-separated field; the
 * default empty salt keeps keys byte-identical to the pre-salt
 * rendering.
 */
std::string compileCacheKey(const std::string &source,
                            const ir::BuildOptions &opts,
                            Domain default_domain,
                            const AcceleratorRegistry &registry,
                            const std::string &salt = {});

/** 64-bit FNV-1a of @p key (the content address used for display). */
uint64_t contentHash(const std::string &key);

/** Memoizes compiled programs by content key. */
class CompileCache
{
  public:
    using CompileFn = std::function<CompiledProgram()>;

    /**
     * Returns the cached program for @p key, compiling via @p compile on
     * the first request. Concurrent identical requests coalesce onto one
     * compilation. If @p compile throws, the error propagates to every
     * coalesced caller and the key is evicted so a later call can retry
     * — but only the owner's *own* entry is evicted: when the entry was
     * already removed (clear(), LRU pressure) and a newer in-flight
     * compilation now occupies the key, that newer entry stays.
     */
    std::shared_ptr<const CompiledProgram> getOrCompile(
        const std::string &key, const CompileFn &compile);

    /**
     * The program of a *finished* entry for @p key, counting a hit and
     * refreshing its LRU position exactly as a getOrCompile() hit does.
     * nullptr, counting nothing, when the key is absent or its
     * compilation is still in flight (its owner may yet fail).
     */
    std::shared_ptr<const CompiledProgram> lookup(const std::string &key);

    /** Requests served from the cache (including coalesced waits). */
    int64_t hits() const;
    /** Requests that ran the compiler. */
    int64_t misses() const;
    /** Hits that blocked on an in-flight compilation (single-flight
     *  coalescing) rather than finding a finished entry. */
    int64_t coalesced() const;
    /** Finished entries dropped by LRU pressure (not by clear() or
     *  failed-compile eviction). */
    int64_t evictions() const;
    /** hits / (hits + misses); 0 when empty. */
    double hitRate() const;
    /** Distinct programs currently cached (including in-flight). */
    size_t size() const;

    /**
     * Bounds the cache to @p entries finished programs (0 = unbounded,
     * the default). Shrinking below the current population evicts
     * least-recently-used finished entries immediately; in-flight
     * compilations are never dropped, so the cache may transiently
     * exceed the cap while many keys compile at once.
     */
    void setCapacity(size_t entries);

    /** Current entry cap; 0 = unbounded. */
    size_t capacity() const;

    /** Drops all entries and resets the counters. In-flight
     *  compilations keep running; their owners just re-insert nothing
     *  (the results are still handed to their waiters). */
    void clear();

    /**
     * Process-wide cache shared by the bench driver, pmc, and pmcd;
     * unbounded until setCapacity().
     */
    static CompileCache &global();

  private:
    using Future =
        std::shared_future<std::shared_ptr<const CompiledProgram>>;

    struct Entry
    {
        Future future;
        /** Monotonic id distinguishing this in-flight compilation from
         *  any later one re-inserted under the same key. */
        uint64_t generation = 0;
        /** Position in lru_ (most-recent at front). */
        std::list<const std::string *>::iterator lruPos;
        /** Set once the owner finished successfully; null in flight. */
        std::shared_ptr<const CompiledProgram> program;
    };

    /** Counts a hit on @p entry and makes it the most recently used
     *  (caller holds mutex_). */
    void countHitLocked(Entry &entry);

    /** Programs of evicted entries, freed by the caller once mutex_ is
     *  released: a large CompiledProgram takes microseconds to destroy,
     *  and every other lookup would wait behind it. */
    using Evicted = std::vector<std::shared_ptr<const CompiledProgram>>;

    /** Evicts LRU finished entries until size() <= capacity_, moving
     *  their programs into @p evicted (caller holds mutex_). In-flight
     *  entries are skipped, never dropped. */
    void enforceCapacityLocked(Evicted &evicted);

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    /** Keys of entries_, most recently used first. Each points at the
     *  key inside its entries_ node, which rehashing never moves. */
    std::list<const std::string *> lru_;
    uint64_t nextGeneration_ = 1;
    size_t capacity_ = 0; ///< 0 = unbounded
    int64_t hits_ = 0;
    int64_t misses_ = 0;
    int64_t coalesced_ = 0;
    int64_t evictions_ = 0;
};

} // namespace polymath::lower

#endif // POLYMATH_LOWER_COMPILE_CACHE_H_
