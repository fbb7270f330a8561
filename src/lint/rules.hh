/**
 * @file
 * The project-invariant rules `hllc_lint` enforces.
 *
 * Each rule encodes a contract an earlier PR established the hard way
 * (see DESIGN.md §11 for the rule → bug mapping):
 *
 *  - `determinism`: no ambient randomness (rand(), std::random_device,
 *    time(nullptr) seeding, thread-id-derived values) outside
 *    common/rng — grid results must be byte-identical for any --jobs.
 *  - `atomic-io`: no raw std::ofstream/fopen file creation outside
 *    common/serialize — everything written goes through
 *    writeFileAtomic so a crash never leaves a torn file.
 *  - `atomic-rename`: no raw rename()/renameat()/renameat2() outside
 *    common/serialize — the commit step of an atomic write belongs to
 *    writeFileAtomic, which also fsyncs the file and its parent
 *    directory so the published name survives a power cut.
 *  - `locale`: no std::to_string/setprecision/strtod-family formatting
 *    or parsing outside common/numfmt — a de_DE process locale must
 *    not turn "0.25" into "0,25" in machine-readable output.
 *  - `no-exit-in-library`: exit()/abort() only in CLI mains and the
 *    sanctioned logging sinks; library code throws hllc::IoError.
 *  - `header-hygiene`: include guards named HLLC_<PATH>_HH, no
 *    `using namespace` in headers, and module includes that respect
 *    the CMake layering DAG.
 *
 * Five further rules are semantic: they need the whole-tree symbol
 * index built by src/analysis, so only their names live here (the
 * engines are in analysis/engines.hh):
 *
 *  - `failpoint-coverage`: fallible syscall wrapper sites must be
 *    reachable from a compiled-in HLLC_FAILPOINT, and failpoint name
 *    literals must exactly match the closed catalog in
 *    common/failpoint.cc.
 *  - `lock-discipline`: HLLC_GUARDED_BY(m) fields may only be touched
 *    under a MutexLock on m (the GCC-side stand-in for Clang's
 *    -Wthread-safety).
 *  - `rng-discipline`: RNG construction outside common/rng must be
 *    seeded through childStream/childSeed/fork, never ad hoc.
 *  - `schema-drift`: JSON keys in the hllc-*-v1 exporters must match
 *    the schema tables in EXPERIMENTS.md.
 *  - `include-graph`: no include cycles among project headers, no
 *    includes whose declared names the includer never references.
 *
 * Findings can be waived inline with
 * `// hllc-lint: allow(<rule>[,<rule>...]) <justification>` on the
 * offending line or alone on the line above; an allow() without a
 * justification is itself reported (rule `suppression`).
 */

#ifndef HLLC_LINT_RULES_HH
#define HLLC_LINT_RULES_HH

#include <set>
#include <string>
#include <vector>

namespace hllc::lint
{

/** One rule violation at one source location. */
struct Finding
{
    std::string file; //!< repo-relative path, forward slashes
    int line = 0;     //!< 1-based
    std::string rule;
    std::string message;
    /**
     * The offending source line, whitespace-trimmed: the baseline
     * fingerprint, stable across unrelated edits above the line.
     */
    std::string lineText;
};

/** Every rule name, in reporting order. */
const std::vector<std::string> &allRules();

/** Rule enablement (all on by default). */
struct Options
{
    std::vector<std::string> disabledRules;

    bool ruleEnabled(const std::string &rule) const;
};

/**
 * Lint one translation unit. @p path is the repo-relative path (it
 * selects which rules apply and the expected include-guard name);
 * @p content is the file's text. Suppression comments are honoured;
 * findings come back sorted by line.
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content,
                                const Options &options = {});

/**
 * One `hllc-lint: allow(...)` waiver and the line range it covers (a
 * comment sharing its line with code covers that line; a standalone
 * comment covers the next line holding code).
 */
struct Waiver
{
    int firstLine = 0;
    int lastLine = 0;
    std::set<std::string> rules;

    bool covers(const std::string &rule, int line) const
    {
        return line >= firstLine && line <= lastLine &&
               rules.count(rule) != 0;
    }
};

/**
 * The well-formed waivers of @p content, for layers (like analysis/)
 * that produce findings of their own and must honour the same inline
 * suppressions lintSource() applies. Malformed waivers are not
 * reported here — lintSource() owns the `suppression` rule.
 */
std::vector<Waiver> parseWaivers(const std::string &content);

} // namespace hllc::lint

#endif // HLLC_LINT_RULES_HH
