/**
 * @file
 * Golden byte-identity over the Table III suite and the two Table IV
 * applications: for every program, the printed srDFG (before and after the standard fixpoint pipeline) and
 * the serialized JSON graph must match the checked-in capture byte for
 * byte. The goldens were generated from the pre-interning seed build, so
 * this pins the op-interning refactor (and any later IR change) to being
 * a pure representation change — spellings, ordering, and structure of
 * all user-visible output stay identical.
 *
 * Regenerate (only when an intentional IR change lands) with:
 *   POLYMATH_UPDATE_GOLDENS=1 build/tests/test_golden_ir
 */
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <gtest/gtest.h>

#include "passes/pass.h"
#include "srdfg/printer.h"
#include "srdfg/serialize.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

std::string
goldenPath(const std::string &id)
{
    return std::string(POLYMATH_GOLDEN_DIR) + "/" + id + ".golden";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** The capture: printed srDFG pre-pipeline, printed srDFG post-pipeline
 *  (fixpoint), and the serialized JSON of the optimized graph. */
std::string
captureProgram(const std::string &id, const std::string &source,
               const ir::BuildOptions &opts)
{
    auto graph = wl::buildGraph(source, opts);
    std::string out = "== " + id + ": built ==\n";
    out += ir::printGraph(*graph);
    auto pipeline = pass::standardPipeline();
    pipeline.runToFixpoint(*graph);
    out += "== " + id + ": optimized ==\n";
    out += ir::printGraph(*graph);
    out += "== " + id + ": json ==\n";
    out += ir::toJson(*graph);
    out += "\n";
    return out;
}

class GoldenIr : public ::testing::TestWithParam<std::string>
{
};

/** Captures the Table III benchmark or Table IV app named @p id. */
std::string
captureById(const std::string &id)
{
    for (const auto &app : wl::tableIV()) {
        if (app.id == id)
            return captureProgram(app.id, app.source, app.buildOpts);
    }
    const auto &bench = wl::benchmarkById(id);
    return captureProgram(bench.id, bench.source, bench.buildOpts);
}

TEST_P(GoldenIr, PrintedAndSerializedFormsMatchCapture)
{
    const std::string actual = captureById(GetParam());
    const std::string path = goldenPath(GetParam());
    if (std::getenv("POLYMATH_UPDATE_GOLDENS") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden " << path
        << " (run with POLYMATH_UPDATE_GOLDENS=1 to capture)";
    // EXPECT_EQ on multi-kilobyte strings produces unreadable failures;
    // report the first differing line instead.
    if (actual != expected) {
        std::istringstream a(actual);
        std::istringstream e(expected);
        std::string al;
        std::string el;
        int line = 1;
        while (std::getline(e, el)) {
            if (!std::getline(a, al))
                al = "<end of actual>";
            ASSERT_EQ(al, el) << path << ": first divergence at line "
                              << line;
            ++line;
        }
        FAIL() << path << ": actual output has trailing data past line "
               << line;
    }
}

std::vector<std::string>
tableIIIIds()
{
    std::vector<std::string> ids;
    for (const auto &bench : wl::tableIII())
        ids.push_back(bench.id);
    return ids;
}

std::vector<std::string>
tableIVIds()
{
    std::vector<std::string> ids;
    for (const auto &app : wl::tableIV())
        ids.push_back(app.id);
    return ids;
}

std::string
testName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string name = info.param;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(TableIII, GoldenIr,
                         ::testing::ValuesIn(tableIIIIds()), testName);
INSTANTIATE_TEST_SUITE_P(TableIV, GoldenIr,
                         ::testing::ValuesIn(tableIVIds()), testName);

} // namespace
} // namespace polymath
