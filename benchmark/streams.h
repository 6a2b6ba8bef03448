/**
 * @file
 * What the stack benchmark sends: the seventeen programs of Tables III
 * and IV, the fixed request templates built from them, the four
 * workloads, and each workload's seeded request stream.
 *
 * Every request the benchmark sends is one of the templates, so the
 * output of each can be pinned by a digest in benchmark/expected.json
 * (generated in-process through service::runRequest, so a served or
 * pmc-printed response is checked against local execution).
 */
#ifndef STACKBENCH_STREAMS_H_
#define STACKBENCH_STREAMS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/rng.h"
#include "service/protocol.h"
#include "srdfg/builder.h"

namespace stackbench {

/** One program of the suite. */
struct Program
{
    std::string id;     ///< "MobileRobot", ..., "OptionPricing"
    std::string source; ///< PMLang text
    polymath::ir::BuildOptions build;
    std::string target; ///< pmc --target keyword ("ALL" for Table IV)
    bool tableIII = true;
};

/** The fifteen Table III programs followed by the two Table IV ones. */
const std::vector<Program> &programs();

/** One fixed request: a program under one verb (and DSE settings). */
struct Template
{
    size_t program = 0; ///< index into programs()
    polymath::service::Verb verb = polymath::service::Verb::Compile;
    std::string dseSearch; ///< "grid" | "random" (dse verb only)
    uint64_t dseSeed = 0;  ///< dse verb only

    /** Stable name, the key in expected.json ("simulate/FFT-8192"). */
    std::string name() const;

    /** File name the request carries, and the name pmc is given. */
    std::string fileName() const;

    /** The service request (id 0). */
    polymath::service::Request request() const;

    /** pmc flags equivalent to request(), without the input file. */
    std::vector<std::string> pmcFlags() const;
};

/** Every template any workload sends, in a fixed order. */
const std::vector<Template> &templates();

/** Index of the template for (@p program, @p verb); not for dse. */
size_t templateIndex(size_t program, polymath::service::Verb verb);

/** The four workloads. */
enum class Kind
{
    CliCold,
    ServeHit,
    ServeMiss,
    DseSearch,
};

struct Workload
{
    const char *name;
    Kind kind;
    /** pmcd --cache-entries (0 = unbounded); unused by cli-cold. */
    size_t cacheEntries;
};

/** All workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** @throws UserError for an unknown name. */
const Workload &workloadByName(const std::string &name);

/**
 * Seeded request stream of one workload: an endless sequence of template
 * indices. The same (workload, seed) always yields the same sequence.
 * Not thread-safe; concurrent clients share one under a lock.
 */
class Stream
{
  public:
    Stream(Kind kind, uint64_t seed);

    size_t next();

  private:
    /** Refills cycle_ with a seeded shuffle of @p members. */
    void reshuffle(const std::vector<size_t> &members);

    Kind kind_;
    polymath::Rng rng_;
    std::vector<size_t> cycle_;
    size_t pos_ = 0;
    int64_t count_ = 0; ///< requests drawn (serve-miss, dse-search)
};

/**
 * The requests sent, unmeasured, before a workload's timed window: each
 * distinct program of the workload once, so the timed window of a
 * cached workload starts from the state its name promises.
 */
std::vector<size_t> warmupTemplates(Kind kind);

/** Verbs a workload's stream sends. */
std::vector<polymath::service::Verb> verbsOf(Kind kind);

/** 64-bit FNV-1a of a response's stdout bytes. */
uint64_t outputDigest(const std::string &output);

/** Template name -> expected output digest (benchmark/expected.json). */
class Expected
{
  public:
    /** Loads @p path. @throws UserError when unreadable or malformed. */
    static Expected load(const std::string &path);

    /** Runs every template in-process through service::runRequest
     *  and records its digest. */
    static Expected generate();

    void write(const std::string &path) const;

    /** True when @p output is what template @p index must print. */
    bool matches(size_t index, const std::string &output) const;

  private:
    /** Fills byIndex_ from digests_; @throws UserError on a gap. */
    void index(const std::string &origin);

    std::map<std::string, uint64_t> digests_;
    std::vector<uint64_t> byIndex_; ///< parallel to templates()
};

} // namespace stackbench

#endif // STACKBENCH_STREAMS_H_
