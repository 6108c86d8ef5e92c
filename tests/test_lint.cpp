/**
 * @file
 * Self-test for tools/gga_lint: every rule must fire on its fixture
 * (tests/lint_fixtures/bad_*.cpp scoped into the rule's directory via
 * --as), the allowed-constructs fixture must stay clean under every
 * scope, and the real tree must lint clean — the same invariant CI
 * enforces, so a rule regression and a tree regression both fail here
 * first.
 *
 * ctest injects GGA_LINT_BIN (the built binary) and GGA_REPO_ROOT (the
 * source root); running the test binary by hand without them skips.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

struct LintRun
{
    int exitCode = -1;
    std::string output;
};

/** Run gga_lint with @p argsTail appended; capture stdout+stderr. */
LintRun
runLint(const std::string& argsTail)
{
    const char* bin = std::getenv("GGA_LINT_BIN");
    EXPECT_NE(bin, nullptr);
    const std::string cmd = std::string(bin) + " " + argsTail + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    LintRun run;
    if (!pipe)
        return run;
    char buf[4096];
    std::size_t got = 0;
    while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0)
        run.output.append(buf, got);
    const int status = pclose(pipe);
    run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

std::string
repoRoot()
{
    const char* root = std::getenv("GGA_REPO_ROOT");
    EXPECT_NE(root, nullptr);
    return root ? root : "";
}

std::string
fixture(const std::string& name)
{
    return repoRoot() + "/tests/lint_fixtures/" + name;
}

bool
haveEnv()
{
    return std::getenv("GGA_LINT_BIN") && std::getenv("GGA_REPO_ROOT");
}

#define REQUIRE_ENV()                                                     \
    if (!haveEnv())                                                       \
    GTEST_SKIP() << "GGA_LINT_BIN / GGA_REPO_ROOT not set (run via ctest)"

/** Fixture scoped into a rule directory must fail citing that rule. */
void
expectRuleFires(const std::string& fixtureName, const std::string& asPath,
                const std::string& rule)
{
    const LintRun run =
        runLint("--as " + asPath + " " + fixture(fixtureName));
    EXPECT_EQ(run.exitCode, 1)
        << fixtureName << " as " << asPath << ":\n"
        << run.output;
    EXPECT_NE(run.output.find("[" + rule + "]"), std::string::npos)
        << fixtureName << " did not cite " << rule << ":\n"
        << run.output;
}

TEST(Lint, CleanTreeHasNoFindings)
{
    REQUIRE_ENV();
    const LintRun run = runLint("--root " + repoRoot());
    EXPECT_EQ(run.exitCode, 0) << run.output;
}

TEST(Lint, RngFixtureFires)
{
    REQUIRE_ENV();
    expectRuleFires("bad_rng.cpp", "src/sim/fixture.cpp",
                    "determinism-rng");
    expectRuleFires("bad_rng.cpp", "src/graph/fixture.cpp",
                    "determinism-rng");
    expectRuleFires("bad_rng.cpp", "reference/fixture.cpp",
                    "determinism-rng");
}

TEST(Lint, UnorderedFixtureFires)
{
    REQUIRE_ENV();
    expectRuleFires("bad_unordered.cpp", "src/sim/fixture.cpp",
                    "determinism-unordered");
}

TEST(Lint, RawNewFixtureFires)
{
    REQUIRE_ENV();
    expectRuleFires("bad_new.cpp", "src/api/fixture.cpp", "raw-new");
    // new AND delete expressions both fire: one finding per site.
    const LintRun run =
        runLint("--as src/api/fixture.cpp " + fixture("bad_new.cpp"));
    EXPECT_NE(run.output.find("raw new expression"), std::string::npos);
    EXPECT_NE(run.output.find("raw delete expression"), std::string::npos);
}

TEST(Lint, LocaleFixtureFires)
{
    REQUIRE_ENV();
    expectRuleFires("bad_locale.cpp", "src/support/json.cpp",
                    "locale-float");
    expectRuleFires("bad_locale.cpp", "src/support/table.cpp",
                    "locale-float");
    expectRuleFires("bad_locale.cpp", "src/harness/figures.cpp",
                    "locale-float");
}

TEST(Lint, MutexFixtureFires)
{
    REQUIRE_ENV();
    expectRuleFires("bad_mutex.cpp", "src/serve/fixture.cpp",
                    "raw-mutex");
}

TEST(Lint, LenientParseFixtureFires)
{
    REQUIRE_ENV();
    expectRuleFires("bad_parse.cpp", "src/serve/x.cpp", "lenient-parse");
    expectRuleFires("bad_parse.cpp", "src/sim/fixture.cpp", "lenient-parse");
    // Every lenient parse is named, one finding per call.
    const LintRun run =
        runLint("--as src/serve/x.cpp " + fixture("bad_parse.cpp"));
    for (const char* name :
         {"stoi", "stol", "stoll", "stoul", "stoull", "atoi", "atol",
          "atoll", "strtol", "strtoll", "strtoul", "strtoull",
          "istringstream"})
        EXPECT_NE(run.output.find(std::string("] ") + name + ":"),
                  std::string::npos)
            << name << " not flagged:\n" << run.output;
    // The rule covers src/ only.
    EXPECT_EQ(
        runLint("--as tools/fixture.cpp " + fixture("bad_parse.cpp"))
            .exitCode,
        0);
}

TEST(Lint, RuleScopingIsByPath)
{
    REQUIRE_ENV();
    // The RNG fixture outside the determinism core is legal (support/rng
    // itself wraps an engine), and the locale fixture outside the
    // byte-identity-gated files is legal too.
    EXPECT_EQ(
        runLint("--as src/api/fixture.cpp " + fixture("bad_rng.cpp"))
            .exitCode,
        0);
    EXPECT_EQ(
        runLint("--as src/eval/fixture.cpp " + fixture("bad_locale.cpp"))
            .exitCode,
        0);
}

TEST(Lint, CleanFixturePassesUnderEveryScope)
{
    REQUIRE_ENV();
    for (const char* scope :
         {"src/sim/clean.cpp", "src/graph/clean.cpp",
          "src/support/json.cpp", "src/support/table.cpp",
          "src/serve/clean.cpp"}) {
        const LintRun run = runLint(std::string("--as ") + scope + " " +
                                    fixture("clean.cpp"));
        EXPECT_EQ(run.exitCode, 0)
            << "false positive under " << scope << ":\n"
            << run.output;
    }
}

TEST(Lint, ExemptFilesAreExempt)
{
    REQUIRE_ENV();
    // The two deliberate carve-outs: the pool may use placement/raw
    // memory machinery, the annotation wrapper IS the std::mutex owner.
    EXPECT_EQ(runLint("--as src/support/object_pool.hpp " +
                      fixture("bad_new.cpp"))
                  .exitCode,
              0);
    EXPECT_EQ(runLint("--as src/support/thread_annotations.hpp " +
                      fixture("bad_mutex.cpp"))
                  .exitCode,
              0);
}

TEST(Lint, UsageErrorsExitTwo)
{
    REQUIRE_ENV();
    EXPECT_EQ(runLint("--no-such-flag").exitCode, 2);
    EXPECT_EQ(runLint(fixture("does_not_exist.cpp")).exitCode, 2);
}

} // namespace
