/**
 * @file
 * The five semantic rule engines over the merged tree index.
 *
 * Each engine enforces one cross-file contract that the token-level
 * rules in lint/rules.cc cannot see (DESIGN.md §14 maps each rule to
 * the incident that motivated it):
 *
 *  - `failpoint-coverage`: every fallible syscall wrapper site
 *    (`::open`, `::write`, `::rename`, `::fsync`, `::fork`) outside
 *    common/serialize must be reachable — through the name-based call
 *    graph — from a function containing a compiled-in HLLC_FAILPOINT,
 *    and the name literals at HLLC_FAILPOINT sites must exactly match
 *    the closed catalog in common/failpoint.cc, in both directions.
 *  - `lock-discipline`: a field annotated HLLC_GUARDED_BY(m) may only
 *    be referenced inside a scope holding `MutexLock lock(m)` (or in a
 *    function annotated HLLC_REQUIRES(m), or the owning class's
 *    constructor/destructor). This is the GCC-side stand-in for
 *    Clang's -Wthread-safety, which only the clang-tsa CI job runs.
 *  - `rng-discipline`: Xoshiro256StarStar constructions in
 *    sim/serve/ingest must be seeded from childStream / childSeed /
 *    fork / a seed-derived expression — ad hoc seeds fork the
 *    determinism contract silently. (Banned generators such as
 *    std::mt19937 / rand() are the `determinism` token rule's.)
 *  - `schema-drift`: the literal JSON keys each hllc-*-v1 exporter
 *    emits must equal the schema-keys table in EXPERIMENTS.md —
 *    renaming or adding an export field without documenting it is a
 *    finding in both directions.
 *  - `include-graph`: include cycles among project headers, plus
 *    symbol-level unused-include detection (an include none of whose
 *    declared names the includer references).
 *
 * Engines only *read* the index; findings carry file/line/rule/message
 * and the driver (analysis.cc) fills the lineText fingerprint.
 */

#ifndef HLLC_ANALYSIS_ENGINES_HH
#define HLLC_ANALYSIS_ENGINES_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/index.hh"
#include "lint/rules.hh"

namespace hllc::analysis
{

/** The whole-tree symbol table: one FileIndex per walked file. */
struct TreeIndex
{
    std::vector<FileIndex> files;

    /** The index of @p path, or null when it was not walked. */
    const FileIndex *byPath(const std::string &path) const;
};

/**
 * The authoritative exporter for each documented schema. Hardcoded —
 * like lint/rules.cc layerDeps() — so that a stray string literal
 * `"hllc-stats-v1"` in a test or in the torture driver's output
 * matcher can never be mistaken for an exporter.
 */
const std::map<std::string, std::string> &schemaExporters();

/**
 * Parse the `schema-keys: <name>` tables out of EXPERIMENTS.md text:
 * each table starts with that marker line and lists whitespace-
 * separated key names on the following lines, ending at a blank line
 * or a code fence.
 */
std::map<std::string, std::set<std::string>>
parseSchemaTables(const std::string &text);

/**
 * Run every semantic engine enabled in @p rules over @p tree.
 * @p schemaTables comes from parseSchemaTables() over EXPERIMENTS.md
 * (empty when the file is absent). Findings come back unsorted and
 * without lineText; the driver fills and orders them.
 */
std::vector<lint::Finding>
runSemanticEngines(const TreeIndex &tree,
                   const std::map<std::string, std::set<std::string>>
                       &schemaTables,
                   const lint::Options &rules);

} // namespace hllc::analysis

#endif // HLLC_ANALYSIS_ENGINES_HH
