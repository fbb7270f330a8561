/**
 * @file
 * The semantic analysis driver behind `hllc_lint`.
 *
 * analyzeTree() is the tool's engine: it walks the lint file set
 * (lint::collectLintFiles), runs the token-level rules
 * (lint::lintSource) AND the per-file indexer (analysis::buildFileIndex)
 * over each file, merges the indexes into a TreeIndex and runs the five
 * semantic engines over it, honours the inline waivers and baseline,
 * and reports through the lint::Finding structure — so the CLI, JSON
 * schema and baseline format stay byte-compatible with the
 * pre-semantic tool.
 *
 * Incrementality: with a cache path set, the driver persists one
 * (content hash, FileIndex, token-level findings) record per file in a
 * serial::Container (magic "HLNT"), written atomically. On a warm run
 * an unchanged file costs one read + one FNV-1a hash — no lexing — and
 * only the cross-file engines run from scratch, which keeps a warm
 * full-tree run well under the CI wall-time gate. The cache
 * self-invalidates on engine-version or rule-set changes; a corrupt or
 * truncated cache file is discarded, never trusted.
 */

#ifndef HLLC_ANALYSIS_ANALYSIS_HH
#define HLLC_ANALYSIS_ANALYSIS_HH

#include <string>
#include <vector>

#include "lint/lint.hh"

namespace hllc::analysis
{

/** analyzeTree() configuration. */
struct RunOptions
{
    /** Rule enablement forwarded to every engine. */
    lint::Options rules;
    /** Paths to analyze (empty = the lint default set). */
    std::vector<std::string> paths;
    /** Baseline file path ("" = no baseline). */
    std::string baselinePath;
    /** Incremental cache path ("" = no cache, index everything). */
    std::string cachePath;
};

/** How much work a run did, for the `lint` benchmark section. */
struct RunStats
{
    std::size_t filesIndexed = 0; //!< files walked this run
    std::size_t cacheHits = 0;    //!< files served from the cache
};

/**
 * Lint + semantically analyze the tree below @p root. Returns the
 * combined token-level and semantic findings after waivers and
 * baseline subtraction, sorted by file then line; fills @p stats when
 * non-null. Throws hllc::IoError when the root, a requested path or
 * the baseline cannot be read (a missing or corrupt cache is not an
 * error — it is rebuilt).
 */
lint::RunResult analyzeTree(const std::string &root,
                            const RunOptions &options,
                            RunStats *stats = nullptr);

/** Minimal SARIF 2.1.0 report, for CI code-scanning upload. */
std::string formatSarif(const lint::RunResult &result);

} // namespace hllc::analysis

#endif // HLLC_ANALYSIS_ANALYSIS_HH
