/**
 * @file
 * The per-TU symbol indexer behind the semantic lint rules.
 *
 * lint/rules.hh reasons about one token at a time; the five semantic
 * rules (failpoint-coverage, lock-discipline, rng-discipline,
 * schema-drift, include-graph) need to know *what the tokens mean
 * across files*: which function a syscall lives in, which header
 * declares a name, which MutexLock scope covers a guarded-field
 * reference. This indexer extracts exactly that — declarations,
 * identifier references, call sites, string literals with location,
 * function extents, failpoint/guard/lock annotations — from the
 * existing lint::Lexer token stream, one FileIndex per file, merged
 * into a TreeIndex by the analysis driver.
 *
 * It is a heuristic indexer, not a compiler: function extents come from
 * brace tracking, call-graph edges from name references. The engines
 * are written so that imprecision degrades toward false negatives (a
 * missed finding), never toward a finding on correct code.
 *
 * Every structure round-trips through serial::Encoder/Decoder: the
 * incremental cache (.hllc-lint-cache) persists a FileIndex per file,
 * keyed by content hash, so a warm full-tree run re-lexes only what
 * changed.
 */

#ifndef HLLC_ANALYSIS_INDEX_HH
#define HLLC_ANALYSIS_INDEX_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "lint/rules.hh"

namespace hllc::analysis
{

/** What kind of name a Declaration introduces. */
enum class DeclKind : std::uint8_t
{
    Function,   //!< free function, method, constructor
    Type,       //!< class / struct / union / enum name
    Enumerator, //!< one enum member
    Macro,      //!< #define name
    Alias,      //!< `using X = ...` / typedef
    Variable,   //!< namespace-scope variable / constant or data member
};

/** One name a file introduces (the "provides" set of a header). */
struct Declaration
{
    std::string name;
    DeclKind kind = DeclKind::Function;
    int line = 0;
};

/** One function (or method) definition with a brace-tracked body. */
struct FunctionDef
{
    std::string name;      //!< unqualified
    std::string qualifier; //!< `Class` for `Class::name` / enclosing class
    int line = 0;          //!< line of the definition head
    int bodyBegin = 0;     //!< line of the body's opening brace
    int bodyEnd = 0;       //!< line of the matching closing brace
    /** Mutex names from an HLLC_REQUIRES(...) on the definition. */
    std::vector<std::string> requiresMutexes;
};

/** One identifier occurrence (code tokens only, keywords excluded). */
struct IdentRef
{
    std::uint32_t sym = 0; //!< index into FileIndex::symbols
    int line = 0;
    bool called = false;    //!< directly followed by '('
    bool qualified = false; //!< preceded by `Ns::` (so not a member)
};

/** One `::open(` / bare `open(` style fallible-syscall call. */
struct SyscallSite
{
    std::string name; //!< open / write / rename / fsync / fork
    int line = 0;
};

/** One HLLC_FAILPOINT("name") or shouldFail("name") literal site. */
struct FailpointSite
{
    std::string name; //!< the string literal
    int line = 0;
    bool macroSite = false; //!< true for HLLC_FAILPOINT, not shouldFail
};

/** One string entry of the closed catalog in allFailpoints(). */
struct CatalogEntry
{
    std::string name;
    int line = 0;
};

/** One field declared with HLLC_GUARDED_BY(mutex). */
struct GuardedField
{
    std::string name;
    std::string klass; //!< innermost enclosing class/struct
    std::string mutex; //!< last identifier of the annotation argument
    int line = 0;
};

/** The lines covered by one `MutexLock lock(expr);` scope. */
struct LockScope
{
    std::string mutex; //!< last identifier of the lock expression
    int beginLine = 0;
    int endLine = 0;
};

/** One seeding Xoshiro256StarStar construction, for rng-discipline. */
struct RngSite
{
    std::string name; //!< Xoshiro256StarStar
    int line = 0;
    /** Identifiers in the initializer. */
    std::vector<std::string> seedIdents;
};

/** One literal JSON object key (`\"key\":`) inside a string literal. */
struct JsonKey
{
    std::string key;
    int line = 0;
};

/** One project `#include "..."` with its line. */
struct IncludeRef
{
    std::string path; //!< as written, e.g. common/rng.hh
    int line = 0;
};

/** Everything the semantic engines need to know about one file. */
struct FileIndex
{
    std::string path;             //!< repo-relative, forward slashes
    std::uint64_t contentHash = 0;
    std::vector<IncludeRef> includes;
    std::vector<Declaration> decls;
    std::vector<FunctionDef> functions;
    std::vector<std::string> symbols; //!< de-duplicated identifier texts
    std::vector<IdentRef> refs;
    std::vector<SyscallSite> syscalls;
    std::vector<FailpointSite> failpoints;
    std::vector<CatalogEntry> catalog; //!< strings in allFailpoints()
    std::vector<GuardedField> guardedFields;
    std::vector<LockScope> lockScopes;
    std::vector<RngSite> rngSites;
    std::vector<JsonKey> jsonKeys;
    /** Inline waivers, kept here so the cache preserves them. */
    std::vector<lint::Waiver> waivers;

    /** The de-duplicated set of identifier texts the file mentions. */
    std::set<std::string> identifierSet() const;
};

/** FNV-1a 64 over @p text — the cache key for one file's content. */
std::uint64_t contentHash(const std::string &text);

/** Build the index of one file from its text. */
FileIndex buildFileIndex(const std::string &path,
                         const std::string &content);

/** Cache round-trip (format owned by analysis/analysis.cc). */
void encodeFileIndex(serial::Encoder &enc, const FileIndex &index);
FileIndex decodeFileIndex(serial::Decoder &dec);

} // namespace hllc::analysis

#endif // HLLC_ANALYSIS_INDEX_HH
