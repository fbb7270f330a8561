/**
 * @file
 * Tree-level pieces of `hllc_lint` shared with the analysis/ driver:
 * the file walk, the cross-file include-cycle check, baseline handling
 * and the text/JSON reporters.
 *
 * The per-file engines live in lint/rules.hh and the driver that runs
 * everything over a tree is analysis::analyzeTree(). This layer walks
 * `src/ tools/ bench/ tests/ examples/`, detects include cycles among
 * project headers, and subtracts a checked-in baseline so pre-existing
 * findings can be burned down without blocking CI. Baseline entries
 * fingerprint the offending line's text, not its number, so unrelated
 * edits above a waived line do not resurrect it.
 */

#ifndef HLLC_LINT_LINT_HH
#define HLLC_LINT_LINT_HH

#include <map>
#include <string>
#include <vector>

#include "lint/rules.hh"

namespace hllc::lint
{

/** Outcome of linting a tree. */
struct RunResult
{
    /** Findings after suppressions and baseline subtraction. */
    std::vector<Finding> findings;
    /** How many findings the baseline absorbed. */
    std::size_t baselined = 0;
    /** Baseline entries that matched nothing (stale, worth pruning). */
    std::size_t staleBaseline = 0;
    std::size_t filesScanned = 0;
};

/**
 * Sorted, de-duplicated repo-relative paths of every lintable C++ file
 * under @p paths (empty = the project default set). Shared with the
 * analysis/ driver so both walk the identical file set.
 */
std::vector<std::string>
collectLintFiles(const std::string &root,
                 const std::vector<std::string> &paths);

/**
 * Report include cycles among project headers under rule
 * `include-graph`: a cyclic header pair cannot both be self-contained.
 * @p graph maps each header to the project headers it includes
 * (resolved paths; edges to nodes absent from the graph are ignored).
 */
void checkIncludeCycles(
    const std::map<std::string, std::vector<std::string>> &graph,
    std::vector<Finding> &findings);

/**
 * Subtract the checked-in baseline (text of the baseline file) from
 * @p result: matched findings are dropped and counted in `baselined`,
 * unmatched baseline entries in `staleBaseline`.
 */
void subtractBaseline(const std::string &baselineText,
                      RunResult &result);

/** One `file|rule|line-text` baseline line per finding. */
std::string formatBaseline(const std::vector<Finding> &findings);

/** Human-readable report: `file:line: [rule] message`. */
std::string formatText(const RunResult &result);

/** Machine-readable report (schema "hllc-lint-v1"). */
std::string formatJson(const RunResult &result);

} // namespace hllc::lint

#endif // HLLC_LINT_LINT_HH
