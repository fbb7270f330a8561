/**
 * @file
 * hllc_lint engine tests: a small corpus of bad snippets (one per
 * rule), false-positive traps (banned keywords inside strings and
 * comments must stay silent), suppression-comment semantics, baseline
 * subtraction, the include-cycle detector and the report formats.
 *
 * Every corpus snippet lives in a C++ string literal, so the linter —
 * which also scans tests/ — sees them as string tokens and stays quiet
 * about this file itself.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>
#include <unistd.h>

#include "analysis/analysis.hh"
#include "common/error.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"
#include "lint/lexer.hh"
#include "lint/lint.hh"
#include "lint/rules.hh"

namespace
{

namespace fs = std::filesystem;
using namespace hllc;

// --------------------------------------------------------------------
// Helpers.
// --------------------------------------------------------------------

std::vector<lint::Finding>
run(const std::string &path, const std::string &source,
    const lint::Options &options = {})
{
    return lint::lintSource(path, source, options);
}

/** Number of findings for @p rule. */
std::size_t
countRule(const std::vector<lint::Finding> &findings,
          const std::string &rule)
{
    std::size_t n = 0;
    for (const lint::Finding &finding : findings) {
        if (finding.rule == rule)
            ++n;
    }
    return n;
}

lint::Options
without(const std::string &rule)
{
    lint::Options options;
    options.disabledRules.push_back(rule);
    return options;
}

/** A header body with the correct guard for src/cache/corpus.hh. */
std::string
guardedHeader(const std::string &body)
{
    return "#ifndef HLLC_CACHE_CORPUS_HH\n"
           "#define HLLC_CACHE_CORPUS_HH\n" +
           body +
           "#endif // HLLC_CACHE_CORPUS_HH\n";
}

// --------------------------------------------------------------------
// determinism
// --------------------------------------------------------------------

TEST(LintDeterminism, FiresOnRandCall)
{
    const std::string src = "int f() { return rand(); }\n";
    EXPECT_EQ(countRule(run("src/cache/corpus.cc", src),
                        "determinism"), 1u);
    // The corpus snippet is exactly what proves the engine is live:
    // disabling the rule must silence it.
    EXPECT_EQ(countRule(run("src/cache/corpus.cc", src,
                            without("determinism")), "determinism"), 0u);
}

TEST(LintDeterminism, FiresOnEngineTypesAndClockSeeds)
{
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "std::mt19937 gen(7);\n"), "determinism"),
              1u);
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "std::random_device rd;\n"), "determinism"),
              1u);
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "auto seed = time(nullptr);\n"),
                        "determinism"), 1u);
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "auto id = std::this_thread::get_id();\n"),
                        "determinism"), 1u);
}

TEST(LintDeterminism, SilentOnLookalikes)
{
    // An identifier merely named `rand` is legal when not called...
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "int rand = 3; use(rand);\n"),
                        "determinism"), 0u);
    // ...and so is a member function on some object.
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "int x = gen.rand();\n"), "determinism"),
              0u);
    // time() with an actual argument is formatting, not seeding.
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "time(&now);\n"), "determinism"), 0u);
}

TEST(LintDeterminism, RngModuleIsExempt)
{
    EXPECT_EQ(countRule(run("src/common/rng.cc",
                            "std::mt19937_64 engine_;\n"),
                        "determinism"), 0u);
}

// --------------------------------------------------------------------
// atomic-io
// --------------------------------------------------------------------

TEST(LintAtomicIo, FiresOnRawFileCreation)
{
    const std::string src =
        "void f() { std::ofstream out(\"results.json\"); }\n";
    EXPECT_EQ(countRule(run("src/sim/corpus.cc", src), "atomic-io"), 1u);
    EXPECT_EQ(countRule(run("src/sim/corpus.cc", src,
                            without("atomic-io")), "atomic-io"), 0u);

    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "FILE *f = fopen(\"x\", \"w\");\n"),
                        "atomic-io"), 1u);
}

TEST(LintAtomicIo, SerializeModuleIsExempt)
{
    EXPECT_EQ(countRule(run("src/common/serialize.cc",
                            "FILE *f = fopen(path, \"wb\");\n"),
                        "atomic-io"), 0u);
}

// --------------------------------------------------------------------
// atomic-rename
// --------------------------------------------------------------------

TEST(LintAtomicRename, FiresOnRawRename)
{
    const std::string src =
        "void f() { std::rename(\"a.tmp\", \"a.json\"); }\n";
    EXPECT_EQ(countRule(run("src/sim/corpus.cc", src), "atomic-rename"),
              1u);
    EXPECT_EQ(countRule(run("src/sim/corpus.cc", src,
                            without("atomic-rename")),
                        "atomic-rename"), 0u);

    // Unqualified C rename() and the *at variants are just as raw.
    EXPECT_EQ(countRule(run("tools/corpus.cpp",
                            "rename(tmp.c_str(), path.c_str());\n"),
                        "atomic-rename"), 1u);
    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "renameat2(fd, a, fd, b, 0);\n"),
                        "atomic-rename"), 1u);
    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "std::filesystem::rename(a, b);\n"),
                        "atomic-rename"), 1u);
}

TEST(LintAtomicRename, SilentOnLookalikes)
{
    // A member function named rename belongs to its object...
    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "registry.rename(old_name, new_name);\n"),
                        "atomic-rename"), 0u);
    // ...and so does a qualified call into some other namespace.
    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "db::rename(old_name, new_name);\n"),
                        "atomic-rename"), 0u);
    // An identifier merely named rename is not a call.
    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "bool rename = false; use(rename);\n"),
                        "atomic-rename"), 0u);
}

TEST(LintAtomicRename, SerializeModuleIsExempt)
{
    EXPECT_EQ(countRule(run("src/common/serialize.cc",
                            "std::rename(tmp.c_str(), p.c_str());\n"),
                        "atomic-rename"), 0u);
}

// --------------------------------------------------------------------
// locale
// --------------------------------------------------------------------

TEST(LintLocale, FiresOnLocaleHonouringCalls)
{
    const std::string src = "auto s = std::to_string(count);\n";
    EXPECT_EQ(countRule(run("src/sim/corpus.cc", src), "locale"), 1u);
    EXPECT_EQ(countRule(run("src/sim/corpus.cc", src,
                            without("locale")), "locale"), 0u);

    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "os << std::setprecision(4) << v;\n"),
                        "locale"), 1u);
    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "double d = strtod(text, &end);\n"),
                        "locale"), 1u);
    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "double d = atof(text);\n"), "locale"), 1u);
}

TEST(LintLocale, SilentOnOtherNamespacesAndNumfmt)
{
    // Some other library's to_string is not std's.
    EXPECT_EQ(countRule(run("src/sim/corpus.cc",
                            "auto s = fmt::to_string(x);\n"), "locale"),
              0u);
    EXPECT_EQ(countRule(run("src/common/numfmt.hh",
                            "auto s = std::to_string(x);\n"), "locale"),
              0u);
}

// --------------------------------------------------------------------
// no-exit-in-library
// --------------------------------------------------------------------

TEST(LintNoExit, FiresInLibraryCodeOnly)
{
    const std::string src = "void f() { std::exit(1); }\n";
    EXPECT_EQ(countRule(run("src/cache/corpus.cc", src),
                        "no-exit-in-library"), 1u);
    EXPECT_EQ(countRule(run("src/cache/corpus.cc", src,
                            without("no-exit-in-library")),
                        "no-exit-in-library"), 0u);
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "void f() { abort(); }\n"),
                        "no-exit-in-library"), 1u);

    // CLI mains may terminate the process; so may the logging sinks.
    EXPECT_EQ(countRule(run("tools/corpus.cpp", src),
                        "no-exit-in-library"), 0u);
    EXPECT_EQ(countRule(run("src/common/logging.cc",
                            "void f() { std::abort(); }\n"),
                        "no-exit-in-library"), 0u);
}

// --------------------------------------------------------------------
// header-hygiene
// --------------------------------------------------------------------

TEST(LintHeaderHygiene, CleanHeaderPasses)
{
    EXPECT_EQ(countRule(run("src/cache/corpus.hh",
                            guardedHeader("int f();\n")),
                        "header-hygiene"), 0u);
}

TEST(LintHeaderHygiene, FiresOnGuardProblems)
{
    const std::string wrong_guard =
        "#ifndef WRONG_GUARD_HH\n"
        "#define WRONG_GUARD_HH\n"
        "int f();\n"
        "#endif\n";
    EXPECT_EQ(countRule(run("src/cache/corpus.hh", wrong_guard),
                        "header-hygiene"), 1u);
    EXPECT_EQ(countRule(run("src/cache/corpus.hh", wrong_guard,
                            without("header-hygiene")),
                        "header-hygiene"), 0u);

    EXPECT_GE(countRule(run("src/cache/corpus.hh",
                            "#pragma once\nint f();\n"),
                        "header-hygiene"), 1u);
    EXPECT_EQ(countRule(run("src/cache/corpus.hh",
                            "int f();\n"), "header-hygiene"), 1u);
}

TEST(LintHeaderHygiene, FiresOnUsingNamespaceInHeader)
{
    EXPECT_EQ(countRule(run("src/cache/corpus.hh",
                            guardedHeader("using namespace std;\n")),
                        "header-hygiene"), 1u);
    // The same statement in a .cc is fine.
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "using namespace std;\n"),
                        "header-hygiene"), 0u);
}

TEST(LintHeaderHygiene, FiresOnLayeringViolations)
{
    // common is the bottom layer: it must not reach up into cache.
    EXPECT_EQ(countRule(run("src/common/corpus.cc",
                            "#include \"cache/cache_set.hh\"\n"),
                        "header-hygiene"), 1u);
    // cache -> common is a sanctioned edge.
    EXPECT_EQ(countRule(run("src/cache/corpus.cc",
                            "#include \"common/logging.hh\"\n"),
                        "header-hygiene"), 0u);
    // A module absent from the layering table is itself a finding.
    EXPECT_EQ(countRule(run("src/newmod/corpus.cc",
                            "#include \"common/logging.hh\"\n"),
                        "header-hygiene"), 1u);
    // tools/bench/tests may include anything.
    EXPECT_EQ(countRule(run("tools/corpus.cpp",
                            "#include \"sim/grid.hh\"\n"),
                        "header-hygiene"), 0u);
}

// --------------------------------------------------------------------
// False-positive traps: banned names inside strings and comments.
// --------------------------------------------------------------------

TEST(LintFalsePositives, KeywordsInStringsDoNotFire)
{
    const std::string src =
        "const char *a = \"call rand() or fopen() here\";\n"
        "const char *b = \"std::to_string(3) std::exit(1)\";\n"
        "const char *c = R\"(std::ofstream out; mt19937 gen;)\";\n";
    const std::vector<lint::Finding> findings =
        run("src/cache/corpus.cc", src);
    EXPECT_TRUE(findings.empty())
        << lint::formatText({ findings, 0, 0, 1 });
}

TEST(LintFalsePositives, KeywordsInCommentsDoNotFire)
{
    const std::string src =
        "// rand() would break determinism; fopen() tears output\n"
        "/* std::to_string(x) honours the locale; std::exit(1) */\n"
        "int f();\n";
    EXPECT_TRUE(run("src/cache/corpus.cc", src).empty());
}

// --------------------------------------------------------------------
// Suppressions.
// --------------------------------------------------------------------

TEST(LintSuppression, SameLineWaiverCoversItsLine)
{
    const std::string src =
        "int x = rand(); "
        "// hllc-lint: allow(determinism) corpus test needs it\n";
    EXPECT_TRUE(run("src/cache/corpus.cc", src).empty());
}

TEST(LintSuppression, StandaloneWaiverCoversNextCodeLine)
{
    const std::string src =
        "// hllc-lint: allow(atomic-io) probing a torn file on purpose\n"
        "FILE *f = fopen(\"x\", \"rb\");\n";
    EXPECT_TRUE(run("src/cache/corpus.cc", src).empty());

    // A continued comment still reaches the first line holding code.
    const std::string continued =
        "// hllc-lint: allow(atomic-io) probing a torn file on\n"
        "// purpose, to check the reader's error path\n"
        "FILE *f = fopen(\"x\", \"rb\");\n";
    EXPECT_TRUE(run("src/cache/corpus.cc", continued).empty());
}

TEST(LintSuppression, WaiverOnlyCoversNamedRules)
{
    // The waiver names determinism, so the atomic-io finding survives.
    const std::string src =
        "// hllc-lint: allow(determinism) wrong rule named\n"
        "FILE *f = fopen(\"x\", \"rb\");\n";
    EXPECT_EQ(countRule(run("src/cache/corpus.cc", src), "atomic-io"),
              1u);
}

TEST(LintSuppression, MissingJustificationIsItselfAFinding)
{
    const std::string src =
        "// hllc-lint: allow(determinism)\n"
        "int x = rand();\n";
    const std::vector<lint::Finding> findings =
        run("src/cache/corpus.cc", src);
    // The waiver still works, but its emptiness is reported.
    EXPECT_EQ(countRule(findings, "determinism"), 0u);
    EXPECT_EQ(countRule(findings, "suppression"), 1u);
    EXPECT_EQ(countRule(run("src/cache/corpus.cc", src,
                            without("suppression")), "suppression"),
              0u);
}

TEST(LintSuppression, UnknownRuleNameIsReported)
{
    const std::string src =
        "// hllc-lint: allow(no-such-rule) bogus\n"
        "int f();\n";
    EXPECT_EQ(countRule(run("src/cache/corpus.cc", src), "suppression"),
              1u);
}

TEST(LintSuppression, ProseQuotingTheSyntaxIsIgnored)
{
    // Documentation describing the waiver format is not a waiver.
    const std::string src =
        "// Waive findings with hllc-lint: allow(<rule>) <why>.\n"
        "int f();\n";
    EXPECT_TRUE(run("src/cache/corpus.cc", src).empty());
}

// --------------------------------------------------------------------
// Tree walking, include cycles, baseline, report formats.
// --------------------------------------------------------------------

/** A throwaway tree under /tmp, deleted on scope exit. */
class TempTree
{
  public:
    TempTree()
        : root_(fs::temp_directory_path() /
                ("hllc_test_lint_" + formatI64(::getpid())))
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

/** analyzeTree() options over @p paths with no incremental cache. */
analysis::RunOptions
treeOptions(std::vector<std::string> paths)
{
    analysis::RunOptions options;
    options.paths = std::move(paths);
    options.cachePath = "";
    return options;
}

TEST(LintTree, WalksFindsAndBaselines)
{
    TempTree tree;
    tree.add("src/cache/clean.cc", "int f() { return 1; }\n");
    tree.add("src/cache/bad.cc", "int g() { return rand(); }\n");

    analysis::RunOptions options = treeOptions({ "src" });
    const lint::RunResult first =
        analysis::analyzeTree(tree.rootStr(), options);
    ASSERT_EQ(first.findings.size(), 1u);
    EXPECT_EQ(first.findings[0].file, "src/cache/bad.cc");
    EXPECT_EQ(first.findings[0].rule, "determinism");
    EXPECT_EQ(first.findings[0].lineText, "int g() { return rand(); }");
    EXPECT_EQ(first.filesScanned, 2u);

    // A baseline built from the findings absorbs them on the next run;
    // an entry matching nothing is counted stale.
    tree.add("baseline.txt",
             lint::formatBaseline(first.findings) +
             "src/cache/clean.cc|locale|gone line\n");
    options.baselinePath = "baseline.txt";
    const lint::RunResult second =
        analysis::analyzeTree(tree.rootStr(), options);
    EXPECT_TRUE(second.findings.empty());
    EXPECT_EQ(second.baselined, 1u);
    EXPECT_EQ(second.staleBaseline, 1u);
}

TEST(LintTree, DetectsHeaderIncludeCycles)
{
    TempTree tree;
    tree.add("src/cache/a.hh",
             "#ifndef HLLC_CACHE_A_HH\n#define HLLC_CACHE_A_HH\n"
             "#include \"cache/b.hh\"\n#endif\n");
    tree.add("src/cache/b.hh",
             "#ifndef HLLC_CACHE_B_HH\n#define HLLC_CACHE_B_HH\n"
             "#include \"cache/a.hh\"\n#endif\n");

    analysis::RunOptions options = treeOptions({ "src" });
    const lint::RunResult result =
        analysis::analyzeTree(tree.rootStr(), options);
    bool cycle_reported = false;
    for (const lint::Finding &finding : result.findings) {
        if (finding.rule == "include-graph" &&
            finding.message.find("include cycle") != std::string::npos) {
            cycle_reported = true;
        }
    }
    EXPECT_TRUE(cycle_reported);

    // The cycle detector is rule include-graph and obeys its switch.
    options.rules = without("include-graph");
    EXPECT_TRUE(
        analysis::analyzeTree(tree.rootStr(), options).findings.empty());
}

TEST(LintTree, MissingPathThrows)
{
    TempTree tree;
    tree.add("src/ok.cc", "int f();\n");
    const analysis::RunOptions options = treeOptions({ "no_such_dir" });
    EXPECT_THROW(analysis::analyzeTree(tree.rootStr(), options), IoError);
}

TEST(LintReport, TextAndJsonShapes)
{
    lint::RunResult result;
    result.findings.push_back({ "src/cache/bad.cc", 3, "determinism",
                                "msg \"quoted\"", "int x = rand();" });
    result.filesScanned = 2;

    const std::string text = lint::formatText(result);
    EXPECT_NE(text.find("src/cache/bad.cc:3: [determinism] "),
              std::string::npos);
    EXPECT_NE(text.find("1 finding(s) in 2 file(s)"), std::string::npos);

    const std::string json = lint::formatJson(result);
    EXPECT_NE(json.find("\"schema\": \"hllc-lint-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"files_scanned\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"determinism\": 1"), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);

    // Every rule appears in counts even at zero, so dashboards can rely
    // on the key set.
    for (const std::string &rule : lint::allRules())
        EXPECT_NE(json.find("\"" + rule + "\""), std::string::npos);
}

// --------------------------------------------------------------------
// Lexer spot checks (the machinery behind the false-positive traps).
// --------------------------------------------------------------------

TEST(LintLexer, ClassifiesTokens)
{
    const std::vector<lint::Token> tokens = lint::lex(
        "#include \"cache/x.hh\"\n"
        "int n = 0x1f; // trailing\n"
        "const char *s = \"str\";\n");
    ASSERT_FALSE(tokens.empty());
    EXPECT_EQ(tokens[0].kind, lint::TokKind::Directive);
    EXPECT_EQ(tokens[0].text, "include");
    EXPECT_EQ(tokens[0].payload, "\"cache/x.hh\"");

    bool saw_number = false, saw_comment = false, saw_string = false;
    for (const lint::Token &tok : tokens) {
        saw_number |= tok.kind == lint::TokKind::Number &&
                      tok.text == "0x1f";
        saw_comment |= tok.kind == lint::TokKind::Comment;
        saw_string |= tok.kind == lint::TokKind::String;
    }
    EXPECT_TRUE(saw_number);
    EXPECT_TRUE(saw_comment);
    EXPECT_TRUE(saw_string);
}

TEST(LintLexer, RawStringsSwallowEverything)
{
    const std::vector<lint::Token> tokens =
        lint::lex("auto s = R\"x(rand() \"quote\" // not a comment)x\";\n");
    for (const lint::Token &tok : tokens) {
        EXPECT_NE(tok.kind, lint::TokKind::Comment);
        if (tok.kind == lint::TokKind::Identifier) {
            EXPECT_NE(tok.text, "rand");
        }
    }
}

TEST(LintLexer, BlockCommentsTrackEndLine)
{
    const std::vector<lint::Token> tokens =
        lint::lex("/* one\ntwo\nthree */ int x;\n");
    ASSERT_FALSE(tokens.empty());
    EXPECT_EQ(tokens[0].kind, lint::TokKind::Comment);
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[0].endLine, 3);
}

/** First token of @p kind, or nullptr. */
const lint::Token *
firstOf(const std::vector<lint::Token> &tokens, lint::TokKind kind)
{
    for (const lint::Token &tok : tokens) {
        if (tok.kind == kind)
            return &tok;
    }
    return nullptr;
}

TEST(LintLexer, DigitSeparatorsStayOneNumberToken)
{
    const std::vector<lint::Token> tokens =
        lint::lex("auto n = 1'048'576; auto h = 0xFF'FF;\n");
    std::vector<std::string> numbers;
    for (const lint::Token &tok : tokens) {
        if (tok.kind == lint::TokKind::Number)
            numbers.push_back(tok.text);
    }
    ASSERT_EQ(numbers.size(), 2u);
    EXPECT_EQ(numbers[0], "1'048'576");
    EXPECT_EQ(numbers[1], "0xFF'FF");
}

TEST(LintLexer, NumericUdlSuffixStaysInTheNumberToken)
{
    const std::vector<lint::Token> tokens =
        lint::lex("auto b = 64_kb; auto t = 250ms;\n");
    std::vector<std::string> numbers;
    for (const lint::Token &tok : tokens) {
        if (tok.kind == lint::TokKind::Number)
            numbers.push_back(tok.text);
        // The suffix must NOT leak out as a free identifier.
        if (tok.kind == lint::TokKind::Identifier) {
            EXPECT_NE(tok.text, "_kb");
            EXPECT_NE(tok.text, "ms");
        }
    }
    ASSERT_EQ(numbers.size(), 2u);
    EXPECT_EQ(numbers[0], "64_kb");
    EXPECT_EQ(numbers[1], "250ms");
}

TEST(LintLexer, StringUdlSuffixLandsInPayload)
{
    const std::vector<lint::Token> tokens =
        lint::lex("auto s = \"abc\"_sv; auto c = 'x'_ch;\n");
    const lint::Token *str = firstOf(tokens, lint::TokKind::String);
    const lint::Token *chr = firstOf(tokens, lint::TokKind::Char);
    ASSERT_NE(str, nullptr);
    ASSERT_NE(chr, nullptr);
    EXPECT_EQ(str->text, "abc");
    EXPECT_EQ(str->payload, "_sv");
    EXPECT_EQ(chr->payload, "_ch");
    for (const lint::Token &tok : tokens) {
        if (tok.kind == lint::TokKind::Identifier) {
            EXPECT_NE(tok.text, "_sv");
            EXPECT_NE(tok.text, "_ch");
        }
    }
}

TEST(LintLexer, RawStringNonEmptyDelimiterEndsAtItsOwnCloser)
{
    // `)"` inside the literal is NOT the closer when the delimiter is
    // `x(`; only `)x"` ends it.
    const std::vector<lint::Token> tokens = lint::lex(
        "auto s = R\"x(inner )\" still inside)x\"_raw; int after = 1;\n");
    const lint::Token *str = firstOf(tokens, lint::TokKind::String);
    ASSERT_NE(str, nullptr);
    EXPECT_NE(str->text.find("still inside"), std::string::npos);
    EXPECT_EQ(str->payload, "_raw");
    bool saw_after = false;
    for (const lint::Token &tok : tokens) {
        saw_after |= tok.kind == lint::TokKind::Identifier &&
                     tok.text == "after";
    }
    EXPECT_TRUE(saw_after);
}

} // anonymous namespace
