/**
 * @file
 * Semantic-analysis tests: per-engine mutation corpora (each bad
 * snippet must yield exactly ONE finding at the right file and line),
 * the clean counterparts, suppression/baseline semantics for the five
 * semantic rules, the incremental cache, the FileIndex serialization
 * round-trip and the SARIF report shape.
 *
 * Every corpus snippet lives in a C++ string literal so the linter —
 * which also scans tests/ — sees them as string tokens and stays quiet
 * about this file itself.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>
#include <unistd.h>

#include "analysis/analysis.hh"
#include "analysis/engines.hh"
#include "analysis/index.hh"
#include "common/error.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"
#include "lint/lint.hh"

namespace
{

namespace fs = std::filesystem;
using namespace hllc;

// --------------------------------------------------------------------
// Helpers.
// --------------------------------------------------------------------

class TempTree
{
  public:
    TempTree()
        : root_(fs::temp_directory_path() /
                ("hllc_test_analysis_" + formatI64(::getpid())))
    {
        fs::remove_all(root_);
    }
    ~TempTree() { fs::remove_all(root_); }

    void
    add(const std::string &rel, const std::string &content)
    {
        const fs::path path = root_ / rel;
        fs::create_directories(path.parent_path());
        serial::writeFileAtomic(path.string(), content.data(),
                                content.size());
    }

    std::string rootStr() const { return root_.string(); }

  private:
    fs::path root_;
};

/** Options with every rule disabled except @p rule. */
lint::Options
only(const std::string &rule)
{
    lint::Options options;
    for (const std::string &name : lint::allRules()) {
        if (name != rule)
            options.disabledRules.push_back(name);
    }
    return options;
}

lint::RunResult
runRule(const TempTree &tree, const std::string &rule,
        analysis::RunStats *stats = nullptr,
        const std::string &cache = "", const std::string &baseline = "")
{
    analysis::RunOptions options;
    options.rules = only(rule);
    options.paths = { "src" };
    options.cachePath = cache;
    options.baselinePath = baseline;
    return analysis::analyzeTree(tree.rootStr(), options, stats);
}

/** The catalog fixture: allFailpoints() with "cache.io" (+ extras). */
void
addCatalog(TempTree &tree, const std::string &extra_line = "")
{
    tree.add("src/common/failpoint.cc",
             "const char *allFailpoints() {\n"
             "    static const char *names[] = {\n"
             "        \"cache.io\",\n" +
             extra_line +
             "    };\n"
             "    return names[0];\n"
             "}\n");
}

/** A failpoint-guarded wrapper whose callee holds the real ::open. */
void
addGuardedOpen(TempTree &tree)
{
    tree.add("src/cache/ok.cc",
             "int lowOpen() { return ::open(\"f\", 0); }\n"
             "void g() { HLLC_FAILPOINT(\"cache.io\"); lowOpen(); }\n");
}

// --------------------------------------------------------------------
// failpoint-coverage
// --------------------------------------------------------------------

TEST(AnalysisFailpoint, UncoveredSyscallIsExactlyOneFinding)
{
    TempTree tree;
    addCatalog(tree);
    addGuardedOpen(tree);
    tree.add("src/cache/orphan.cc",
             "int orphan() { return ::open(\"g\", 0); }\n");

    const lint::RunResult result = runRule(tree, "failpoint-coverage");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/cache/orphan.cc");
    EXPECT_EQ(result.findings[0].line, 1);
    EXPECT_EQ(result.findings[0].rule, "failpoint-coverage");
}

TEST(AnalysisFailpoint, ReachableThroughCallGraphIsClean)
{
    TempTree tree;
    addCatalog(tree);
    addGuardedOpen(tree);
    EXPECT_TRUE(runRule(tree, "failpoint-coverage").findings.empty());
}

TEST(AnalysisFailpoint, SiteNameOutsideCatalogIsExactlyOneFinding)
{
    TempTree tree;
    addCatalog(tree);
    addGuardedOpen(tree);
    tree.add("src/cache/drift.cc",
             "void h() { HLLC_FAILPOINT(\"cache.unknown\"); }\n");

    const lint::RunResult result = runRule(tree, "failpoint-coverage");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/cache/drift.cc");
    EXPECT_EQ(result.findings[0].line, 1);
    EXPECT_NE(result.findings[0].message.find("cache.unknown"),
              std::string::npos);
}

TEST(AnalysisFailpoint, CatalogEntryWithoutSiteIsExactlyOneFinding)
{
    TempTree tree;
    addCatalog(tree, "        \"cache.gone\",\n");
    addGuardedOpen(tree);

    const lint::RunResult result = runRule(tree, "failpoint-coverage");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/common/failpoint.cc");
    EXPECT_EQ(result.findings[0].line, 4);
    EXPECT_NE(result.findings[0].message.find("cache.gone"),
              std::string::npos);
}

// --------------------------------------------------------------------
// lock-discipline
// --------------------------------------------------------------------

TEST(AnalysisLock, UnlockedGuardedFieldIsExactlyOneFinding)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "    void good() { MutexLock lock(mutex_); hits_ = 1; }\n"
             "    void bad() { hits_ = 2; }\n"
             "};\n");

    const lint::RunResult result = runRule(tree, "lock-discipline");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/cache/reg.hh");
    EXPECT_EQ(result.findings[0].line, 5);
    EXPECT_EQ(result.findings[0].rule, "lock-discipline");
}

TEST(AnalysisLock, RequiresAnnotationShiftsTheObligation)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "    void touch() HLLC_REQUIRES(mutex_) { hits_ = 1; }\n"
             "};\n");
    EXPECT_TRUE(runRule(tree, "lock-discipline").findings.empty());
}

TEST(AnalysisLock, CrossFileUseViaIncludeIsChecked)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "};\n");
    tree.add("src/cache/user.cc",
             "#include \"cache/reg.hh\"\n"
             "void t(Reg &r) { r.hits_ = 3; }\n");

    const lint::RunResult result = runRule(tree, "lock-discipline");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/cache/user.cc");
    EXPECT_EQ(result.findings[0].line, 2);
}

TEST(AnalysisLock, UnrelatedSameNameWithoutIncludeIsNotFlagged)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "};\n");
    // No include: this `hits_` is some other variable entirely.
    tree.add("src/fault/other.cc",
             "int hits_ = 0;\n"
             "void u() { hits_ = 4; }\n");
    EXPECT_TRUE(runRule(tree, "lock-discipline").findings.empty());
}

// --------------------------------------------------------------------
// rng-discipline
// --------------------------------------------------------------------

TEST(AnalysisRng, BannedEngineIsExactlyOneFinding)
{
    TempTree tree;
    tree.add("src/cache/r.cc",
             "void f() { std::mt19937 gen; gen(); }\n");

    // The determinism token rule owns banned generators; rng-discipline
    // must not report the same site a second time.
    analysis::RunOptions options;
    options.rules = only("rng-discipline");
    std::erase(options.rules.disabledRules, "determinism");
    options.paths = { "src" };
    const lint::RunResult result =
        analysis::analyzeTree(tree.rootStr(), options);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].rule, "determinism");
    EXPECT_EQ(result.findings[0].file, "src/cache/r.cc");
    EXPECT_EQ(result.findings[0].line, 1);
    EXPECT_NE(result.findings[0].message.find("mt19937"),
              std::string::npos);
}

TEST(AnalysisRng, AdHocXoshiroSeedInSimIsExactlyOneFinding)
{
    TempTree tree;
    tree.add("src/sim/s.cc",
             "void f() { rng::Xoshiro256StarStar r(12345); }\n");

    const lint::RunResult result = runRule(tree, "rng-discipline");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/sim/s.cc");
    EXPECT_EQ(result.findings[0].line, 1);
}

TEST(AnalysisRng, SeedDerivedXoshiroIsClean)
{
    TempTree tree;
    tree.add("src/sim/s.cc",
             "void f(unsigned long long seed) {\n"
             "    rng::Xoshiro256StarStar r(rng::childSeed(seed, 0));\n"
             "}\n");
    EXPECT_TRUE(runRule(tree, "rng-discipline").findings.empty());
}

TEST(AnalysisRng, XoshiroOutsideStreamScopedLayersIsClean)
{
    TempTree tree;
    // The seeding contract only binds sim/serve/ingest.
    tree.add("src/cache/c.cc",
             "void f() { rng::Xoshiro256StarStar r(99); }\n");
    EXPECT_TRUE(runRule(tree, "rng-discipline").findings.empty());
}

// --------------------------------------------------------------------
// schema-drift
// --------------------------------------------------------------------

/** metrics.cc emitting \"schema\" (+ optionally \"extra\"). */
void
addStatsExporter(TempTree &tree, bool with_extra)
{
    std::string body =
        "std::string statsJson() {\n"
        "    std::string out = \"{\";\n"
        "    out += \"  \\\"schema\\\": \\\"hllc-stats-v1\\\",\";\n";
    if (with_extra)
        body += "    out += \"  \\\"extra\\\": 1,\";\n";
    body += "    return out + \"}\";\n}\n";
    tree.add("src/common/metrics.cc", body);
}

TEST(AnalysisSchema, UndocumentedKeyIsExactlyOneFinding)
{
    TempTree tree;
    addStatsExporter(tree, true);
    tree.add("EXPERIMENTS.md", "schema-keys: hllc-stats-v1\nschema\n");

    const lint::RunResult result = runRule(tree, "schema-drift");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/common/metrics.cc");
    EXPECT_EQ(result.findings[0].line, 4);
    EXPECT_NE(result.findings[0].message.find("extra"),
              std::string::npos);
}

TEST(AnalysisSchema, DocumentedButGoneKeyIsExactlyOneFinding)
{
    TempTree tree;
    addStatsExporter(tree, false);
    tree.add("EXPERIMENTS.md",
             "schema-keys: hllc-stats-v1\nschema cells\n");

    const lint::RunResult result = runRule(tree, "schema-drift");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/common/metrics.cc");
    EXPECT_EQ(result.findings[0].line, 1);
    EXPECT_NE(result.findings[0].message.find("cells"),
              std::string::npos);
}

TEST(AnalysisSchema, MissingTableIsExactlyOneFinding)
{
    TempTree tree;
    addStatsExporter(tree, false);
    tree.add("EXPERIMENTS.md", "no tables here\n");

    const lint::RunResult result = runRule(tree, "schema-drift");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].line, 1);
    EXPECT_NE(result.findings[0].message.find("schema-keys"),
              std::string::npos);
}

TEST(AnalysisSchema, MatchingTableIsClean)
{
    TempTree tree;
    addStatsExporter(tree, false);
    tree.add("EXPERIMENTS.md", "schema-keys: hllc-stats-v1\nschema\n");
    EXPECT_TRUE(runRule(tree, "schema-drift").findings.empty());
}

TEST(AnalysisSchema, ParseSchemaTablesShape)
{
    const auto tables = analysis::parseSchemaTables(
        "intro prose\n"
        "schema-keys: hllc-stats-v1\n"
        "schema cells\n"
        "label\n"
        "\n"
        "schema-keys: hllc-lint-v1\n"
        "findings\n"
        "```\n"
        "ignored\n");
    ASSERT_EQ(tables.size(), 2u);
    const auto &stats = tables.at("hllc-stats-v1");
    EXPECT_EQ(stats.size(), 3u);
    EXPECT_TRUE(stats.count("label"));
    const auto &lint_keys = tables.at("hllc-lint-v1");
    EXPECT_EQ(lint_keys.size(), 1u);
    EXPECT_FALSE(lint_keys.count("ignored"));
}

// --------------------------------------------------------------------
// include-graph
// --------------------------------------------------------------------

TEST(AnalysisInclude, UnusedIncludeIsExactlyOneFinding)
{
    TempTree tree;
    tree.add("src/cache/used.hh", "struct Foo { int x; };\n");
    tree.add("src/cache/unused.hh", "struct Bar { int y; };\n");
    tree.add("src/cache/user.cc",
             "#include \"cache/used.hh\"\n"
             "#include \"cache/unused.hh\"\n"
             "Foo makeFoo() { return Foo{}; }\n");

    const lint::RunResult result = runRule(tree, "include-graph");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/cache/user.cc");
    EXPECT_EQ(result.findings[0].line, 2);
    EXPECT_NE(result.findings[0].message.find("cache/unused.hh"),
              std::string::npos);
}

TEST(AnalysisInclude, OwnHeaderIsExemptFromUnusedCheck)
{
    TempTree tree;
    tree.add("src/cache/impl.hh", "struct Impl { int z; };\n");
    tree.add("src/cache/impl.cc",
             "#include \"cache/impl.hh\"\n"
             "int unrelated() { return 0; }\n");
    EXPECT_TRUE(runRule(tree, "include-graph").findings.empty());
}

TEST(AnalysisInclude, HeaderCycleIsReported)
{
    TempTree tree;
    tree.add("src/cache/a.hh",
             "#include \"cache/b.hh\"\nstruct A { B *b; };\n");
    tree.add("src/cache/b.hh",
             "#include \"cache/a.hh\"\nstruct B { A *a; };\n");

    const lint::RunResult result = runRule(tree, "include-graph");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_NE(result.findings[0].message.find("include cycle"),
              std::string::npos);
}

// --------------------------------------------------------------------
// Suppression semantics on the semantic rules.
// --------------------------------------------------------------------

TEST(AnalysisSuppression, InlineWaiverCoversSemanticFindings)
{
    TempTree tree;
    tree.add("src/sim/r.cc",
             "void f() { rng::Xoshiro256StarStar r(12345); }"
             " // hllc-lint: allow(rng-discipline) corpus\n");
    EXPECT_TRUE(runRule(tree, "rng-discipline").findings.empty());
}

TEST(AnalysisSuppression, StandaloneWaiverCoversNextLine)
{
    TempTree tree;
    addCatalog(tree);
    addGuardedOpen(tree);
    tree.add("src/cache/orphan.cc",
             "// hllc-lint: allow(failpoint-coverage) corpus\n"
             "int orphan() { return ::open(\"g\", 0); }\n");
    EXPECT_TRUE(runRule(tree, "failpoint-coverage").findings.empty());
}

TEST(AnalysisSuppression, WaiverForOtherRuleDoesNotCover)
{
    TempTree tree;
    tree.add("src/sim/r.cc",
             "void f() { rng::Xoshiro256StarStar r(12345); }"
             " // hllc-lint: allow(determinism) wrong rule\n");
    EXPECT_EQ(runRule(tree, "rng-discipline").findings.size(), 1u);
}

TEST(AnalysisSuppression, WaiversCoverLockAndIncludeRules)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "    // hllc-lint: allow(lock-discipline) corpus\n"
             "    void bad() { hits_ = 2; }\n"
             "};\n");
    tree.add("src/cache/used.hh", "struct Foo { int x; };\n");
    tree.add("src/cache/user.cc",
             "// hllc-lint: allow(include-graph) re-export\n"
             "#include \"cache/used.hh\"\n"
             "int unrelated() { return 0; }\n");
    EXPECT_TRUE(runRule(tree, "lock-discipline").findings.empty());
    EXPECT_TRUE(runRule(tree, "include-graph").findings.empty());
}

TEST(AnalysisSuppression, BaselineAbsorbsAndReportsStale)
{
    TempTree tree;
    tree.add("src/sim/r.cc",
             "void f() { rng::Xoshiro256StarStar r(12345); }\n");

    lint::RunResult first = runRule(tree, "rng-discipline");
    ASSERT_EQ(first.findings.size(), 1u);
    // Semantic findings must carry the line-text fingerprint so the
    // baseline stays stable across unrelated edits above them.
    EXPECT_EQ(first.findings[0].lineText,
              "void f() { rng::Xoshiro256StarStar r(12345); }");

    const std::string baseline =
        lint::formatBaseline(first.findings) +
        "src/cache/gone.cc|rng-discipline|stale entry\n";
    tree.add("lint.baseline", baseline);

    const lint::RunResult second =
        runRule(tree, "rng-discipline", nullptr, "", "lint.baseline");
    EXPECT_TRUE(second.findings.empty());
    EXPECT_EQ(second.baselined, 1u);
    EXPECT_EQ(second.staleBaseline, 1u);
}

// --------------------------------------------------------------------
// Incremental cache.
// --------------------------------------------------------------------

TEST(AnalysisCache, WarmRunHitsEveryFileAndKeepsFindings)
{
    TempTree tree;
    tree.add("src/cache/a.cc", "int a() { return 1; }\n");
    tree.add("src/sim/b.cc",
             "void f() { rng::Xoshiro256StarStar r(12345); }\n");
    const std::string cache = tree.rootStr() + "/.cache";

    analysis::RunStats cold, warm;
    const lint::RunResult first =
        runRule(tree, "rng-discipline", &cold, cache);
    EXPECT_EQ(cold.filesIndexed, 2u);
    EXPECT_EQ(cold.cacheHits, 0u);
    ASSERT_EQ(first.findings.size(), 1u);

    const lint::RunResult second =
        runRule(tree, "rng-discipline", &warm, cache);
    EXPECT_EQ(warm.cacheHits, 2u);
    ASSERT_EQ(second.findings.size(), 1u);
    EXPECT_EQ(second.findings[0].file, first.findings[0].file);
    EXPECT_EQ(second.findings[0].line, first.findings[0].line);
}

TEST(AnalysisCache, EditedFileMissesOnlyItself)
{
    TempTree tree;
    tree.add("src/cache/a.cc", "int a() { return 1; }\n");
    tree.add("src/cache/b.cc", "int b() { return 2; }\n");
    const std::string cache = tree.rootStr() + "/.cache";

    runRule(tree, "rng-discipline", nullptr, cache);
    tree.add("src/cache/a.cc", "int a() { return 42; }\n");

    analysis::RunStats stats;
    runRule(tree, "rng-discipline", &stats, cache);
    EXPECT_EQ(stats.cacheHits, 1u);
}

TEST(AnalysisCache, RuleSetChangeInvalidatesTheCache)
{
    TempTree tree;
    tree.add("src/cache/a.cc", "int a() { return 1; }\n");
    const std::string cache = tree.rootStr() + "/.cache";

    runRule(tree, "rng-discipline", nullptr, cache);
    analysis::RunStats stats;
    runRule(tree, "lock-discipline", &stats, cache);
    EXPECT_EQ(stats.cacheHits, 0u);
}

TEST(AnalysisCache, CorruptCacheIsDiscardedNotTrusted)
{
    TempTree tree;
    tree.add("src/cache/a.cc", "int a() { return 1; }\n");
    const std::string cache = tree.rootStr() + "/.cache";

    runRule(tree, "rng-discipline", nullptr, cache);
    const std::string junk = "not a container";
    serial::writeFileAtomic(cache, junk.data(), junk.size());

    analysis::RunStats stats;
    const lint::RunResult result =
        runRule(tree, "rng-discipline", &stats, cache);
    EXPECT_EQ(stats.cacheHits, 0u);
    EXPECT_TRUE(result.findings.empty());
}

TEST(AnalysisCache, TokenLevelFindingsReplayFromCache)
{
    TempTree tree;
    tree.add("src/cache/bad.cc", "int g() { return rand(); }\n");
    const std::string cache = tree.rootStr() + "/.cache";

    const lint::RunResult first =
        runRule(tree, "determinism", nullptr, cache);
    ASSERT_EQ(first.findings.size(), 1u);

    analysis::RunStats stats;
    const lint::RunResult second =
        runRule(tree, "determinism", &stats, cache);
    EXPECT_EQ(stats.cacheHits, 1u);
    ASSERT_EQ(second.findings.size(), 1u);
    EXPECT_EQ(second.findings[0].rule, "determinism");
    EXPECT_EQ(second.findings[0].line, first.findings[0].line);
}

// --------------------------------------------------------------------
// FileIndex serialization.
// --------------------------------------------------------------------

TEST(AnalysisIndex, EncodeDecodeRoundTrip)
{
    const std::string source =
        "#include \"cache/reg.hh\"\n"
        "struct Reg {\n"
        "    Mutex mutex_;\n"
        "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
        "};\n"
        "void g() { HLLC_FAILPOINT(\"cache.io\"); ::open(\"f\", 0); }\n";
    const analysis::FileIndex index =
        analysis::buildFileIndex("src/cache/x.cc", source);

    serial::Encoder enc;
    analysis::encodeFileIndex(enc, index);
    serial::Decoder dec(enc.bytes());
    const analysis::FileIndex back = analysis::decodeFileIndex(dec);

    EXPECT_EQ(back.path, index.path);
    EXPECT_EQ(back.contentHash, index.contentHash);
    EXPECT_EQ(back.symbols, index.symbols);
    EXPECT_EQ(back.refs.size(), index.refs.size());
    ASSERT_EQ(back.includes.size(), 1u);
    EXPECT_EQ(back.includes[0].path, "cache/reg.hh");
    ASSERT_EQ(back.guardedFields.size(), 1u);
    EXPECT_EQ(back.guardedFields[0].name, "hits_");
    EXPECT_EQ(back.guardedFields[0].mutex, "mutex_");
    ASSERT_EQ(back.failpoints.size(), 1u);
    EXPECT_EQ(back.failpoints[0].name, "cache.io");
    ASSERT_EQ(back.syscalls.size(), 1u);
    EXPECT_EQ(back.syscalls[0].name, "open");
    EXPECT_EQ(back.identifierSet(), index.identifierSet());
}

// --------------------------------------------------------------------
// SARIF report.
// --------------------------------------------------------------------

TEST(AnalysisSarif, ReportCarriesRuleFileAndLine)
{
    TempTree tree;
    tree.add("src/sim/r.cc",
             "void f() { rng::Xoshiro256StarStar r(12345); }\n");
    const lint::RunResult result = runRule(tree, "rng-discipline");
    ASSERT_EQ(result.findings.size(), 1u);

    const std::string sarif = analysis::formatSarif(result);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"hllc_lint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"rng-discipline\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/sim/r.cc\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

// --------------------------------------------------------------------
// Whole-tree self-check: the real repository must stay clean.
// --------------------------------------------------------------------

TEST(AnalysisSelfCheck, RepositoryTreeIsCleanUnderEveryRule)
{
#ifdef HLLC_TESTS_CORPUS_DIR
    const fs::path repo_root =
        fs::path(HLLC_TESTS_CORPUS_DIR).parent_path().parent_path();
    if (!fs::is_regular_file(repo_root / "src/lint/rules.cc"))
        GTEST_SKIP() << "repo sources not present";
    analysis::RunOptions options;
    const lint::RunResult result =
        analysis::analyzeTree(repo_root.string(), options);
    for (const lint::Finding &finding : result.findings) {
        ADD_FAILURE() << finding.file << ":" << finding.line << " ["
                      << finding.rule << "] " << finding.message;
    }
    EXPECT_GT(result.filesScanned, 100u);
#else
    GTEST_SKIP() << "corpus dir not defined";
#endif
}

// --------------------------------------------------------------------
// Failpoint catalog pinning (the closed-catalog regression test).
// --------------------------------------------------------------------

TEST(AnalysisCatalogPin, EveryCatalogNameHasASiteAndViceVersa)
{
#ifdef HLLC_TESTS_CORPUS_DIR
    const fs::path repo_root =
        fs::path(HLLC_TESTS_CORPUS_DIR).parent_path().parent_path();
    if (!fs::is_regular_file(repo_root / "src/common/failpoint.cc"))
        GTEST_SKIP() << "repo sources not present";

    // Index the real src/ + tools/ trees and compare the catalog
    // against the union of HLLC_FAILPOINT/shouldFail literal sites —
    // set-based, so reordering the catalog stays legal.
    analysis::TreeIndex tree;
    const std::vector<std::string> walk = { "src", "tools" };
    for (const std::string &rel :
         lint::collectLintFiles(repo_root.string(), walk)) {
        const std::vector<std::uint8_t> bytes =
            serial::readFileBytes((repo_root / rel).string());
        tree.files.push_back(analysis::buildFileIndex(
            rel, std::string(bytes.begin(), bytes.end())));
    }

    std::set<std::string> catalog;
    const analysis::FileIndex *cat =
        tree.byPath("src/common/failpoint.cc");
    ASSERT_NE(cat, nullptr);
    for (const analysis::CatalogEntry &entry : cat->catalog)
        catalog.insert(entry.name);
    ASSERT_GE(catalog.size(), 15u);

    std::set<std::string> sites;
    for (const analysis::FileIndex &file : tree.files) {
        for (const analysis::FailpointSite &site : file.failpoints)
            sites.insert(site.name);
    }
    EXPECT_EQ(catalog, sites);
#else
    GTEST_SKIP() << "corpus dir not defined";
#endif
}

} // anonymous namespace
