#include "analysis/analysis.hh"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>

#include "analysis/engines.hh"
#include "common/error.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"

namespace fs = std::filesystem;

namespace hllc::analysis
{

namespace
{

// 'H' 'L' 'N' 'T' — the incremental lint cache container.
constexpr std::uint32_t kCacheMagic = 0x484c4e54u;
constexpr std::uint32_t kCacheVersion = 1;
/** Bump whenever indexer or engine semantics change. */
constexpr std::uint32_t kEngineVersion = 2;

std::string
readFile(const fs::path &path)
{
    const std::vector<std::uint8_t> bytes =
        serial::readFileBytes(path.string());
    return std::string(bytes.begin(), bytes.end());
}

/** One cached file record: index + token-level findings. */
struct CacheEntry
{
    FileIndex index;
    std::vector<lint::Finding> findings;
};

/** Order-independent FNV-1a over the disabled-rule set. */
std::uint64_t
ruleSignature(const lint::Options &rules)
{
    std::vector<std::string> disabled = rules.disabledRules;
    std::sort(disabled.begin(), disabled.end());
    std::string joined;
    for (const std::string &rule : disabled)
        joined += rule + "\n";
    return contentHash(joined);
}

void
encodeFindings(serial::Encoder &enc,
               const std::vector<lint::Finding> &findings)
{
    enc.u32(static_cast<std::uint32_t>(findings.size()));
    for (const lint::Finding &finding : findings) {
        enc.str(finding.file);
        enc.u32(static_cast<std::uint32_t>(finding.line));
        enc.str(finding.rule);
        enc.str(finding.message);
        enc.str(finding.lineText);
    }
}

std::vector<lint::Finding>
decodeFindings(serial::Decoder &dec)
{
    std::vector<lint::Finding> findings;
    const std::uint32_t count = dec.u32();
    findings.reserve(std::min<std::uint32_t>(count, 4096));
    for (std::uint32_t i = 0; i < count; ++i) {
        lint::Finding finding;
        finding.file = dec.str();
        finding.line = static_cast<int>(dec.u32());
        finding.rule = dec.str();
        finding.message = dec.str();
        finding.lineText = dec.str(1 << 16);
        findings.push_back(std::move(finding));
    }
    return findings;
}

/**
 * Load the cache into a path-keyed map. Any structural problem — bad
 * magic, version skew, CRC mismatch, rule-set change — yields an empty
 * map: the cache is advisory, never authoritative.
 */
std::map<std::string, CacheEntry>
loadCache(const std::string &path, const lint::Options &rules)
{
    std::map<std::string, CacheEntry> entries;
    if (path.empty())
        return entries;
    std::error_code ec;
    if (!fs::is_regular_file(path, ec))
        return entries;
    try {
        const serial::Container box = serial::Container::load(
            path, kCacheMagic, kCacheVersion, kCacheVersion);
        serial::Decoder meta = box.open("meta");
        if (meta.u32() != kEngineVersion ||
            meta.u64() != ruleSignature(rules)) {
            return entries;
        }
        serial::Decoder dec = box.open("files");
        const std::uint32_t count = dec.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
            CacheEntry entry;
            entry.index = decodeFileIndex(dec);
            entry.findings = decodeFindings(dec);
            std::string key = entry.index.path;
            entries.emplace(std::move(key), std::move(entry));
        }
    } catch (const IoError &) {
        entries.clear();
    }
    return entries;
}

void
saveCache(const std::string &path, const lint::Options &rules,
          const std::vector<CacheEntry> &entries)
{
    if (path.empty())
        return;
    serial::Container box;
    serial::Encoder &meta = box.add("meta");
    meta.u32(kEngineVersion);
    meta.u64(ruleSignature(rules));
    serial::Encoder &enc = box.add("files");
    enc.u32(static_cast<std::uint32_t>(entries.size()));
    for (const CacheEntry &entry : entries) {
        encodeFileIndex(enc, entry.index);
        encodeFindings(enc, entry.findings);
    }
    try {
        box.save(path, kCacheMagic, kCacheVersion);
    } catch (const IoError &) {
        // A read-only checkout still lints; it just stays cold.
    }
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string current;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(std::move(current));
            current.clear();
        } else if (c != '\r') {
            current += c;
        }
    }
    lines.push_back(std::move(current));
    return lines;
}

std::string
trimmed(const std::string &line)
{
    const std::size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    const std::size_t end = line.find_last_not_of(" \t");
    return line.substr(begin, end - begin + 1);
}

/** SARIF-adequate JSON string escaping (mirrors lint.cc's). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                const char *hex = "0123456789abcdef";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // anonymous namespace

lint::RunResult
analyzeTree(const std::string &root, const RunOptions &options,
            RunStats *stats)
{
    lint::RunResult result;
    const fs::path root_path = root.empty() ? fs::path(".")
                                            : fs::path(root);
    const std::vector<std::string> files =
        lint::collectLintFiles(root, options.paths);

    std::map<std::string, CacheEntry> cached =
        loadCache(options.cachePath, options.rules);

    TreeIndex tree;
    tree.files.reserve(files.size());
    std::vector<CacheEntry> fresh_cache;
    fresh_cache.reserve(files.size());
    std::map<std::string, std::vector<std::string>> file_lines;
    std::size_t cache_hits = 0;

    for (const std::string &file : files) {
        const std::string content = readFile(root_path / file);
        file_lines[file] = splitLines(content);
        const std::uint64_t hash = contentHash(content);

        const auto hit = cached.find(file);
        if (hit != cached.end() &&
            hit->second.index.contentHash == hash) {
            ++cache_hits;
            fresh_cache.push_back(hit->second);
        } else {
            CacheEntry entry;
            entry.index = buildFileIndex(file, content);
            entry.findings =
                lint::lintSource(file, content, options.rules);
            fresh_cache.push_back(std::move(entry));
        }
        const CacheEntry &entry = fresh_cache.back();
        tree.files.push_back(entry.index);
        result.findings.insert(result.findings.end(),
                               entry.findings.begin(),
                               entry.findings.end());
        ++result.filesScanned;
    }

    // The cross-file engines always run live: they are cheap relative
    // to lexing, and any file's change can shift another's verdict.
    std::map<std::string, std::set<std::string>> schema_tables;
    {
        const fs::path experiments = root_path / "EXPERIMENTS.md";
        std::error_code ec;
        if (fs::is_regular_file(experiments, ec))
            schema_tables = parseSchemaTables(readFile(experiments));
    }
    std::vector<lint::Finding> semantic =
        runSemanticEngines(tree, schema_tables, options.rules);

    // Semantic findings honour the same inline waivers lintSource()
    // applies, and get their baseline fingerprint filled here.
    for (lint::Finding &finding : semantic) {
        const FileIndex *file = tree.byPath(finding.file);
        bool waived = false;
        if (file != nullptr) {
            for (const lint::Waiver &waiver : file->waivers) {
                waived = waived ||
                         waiver.covers(finding.rule, finding.line);
            }
        }
        if (waived)
            continue;
        const auto lines = file_lines.find(finding.file);
        if (lines != file_lines.end() && finding.line >= 1 &&
            static_cast<std::size_t>(finding.line) <=
                lines->second.size()) {
            finding.lineText = trimmed(lines->second[finding.line - 1]);
        }
        result.findings.push_back(std::move(finding));
    }

    saveCache(options.cachePath, options.rules, fresh_cache);

    if (!options.baselinePath.empty()) {
        lint::subtractBaseline(
            readFile(root_path / options.baselinePath), result);
    }

    std::stable_sort(result.findings.begin(), result.findings.end(),
                     [](const lint::Finding &a, const lint::Finding &b) {
                         return a.file != b.file ? a.file < b.file
                                                 : a.line < b.line;
                     });
    if (stats != nullptr) {
        stats->filesIndexed = files.size();
        stats->cacheHits = cache_hits;
    }
    return result;
}

std::string
formatSarif(const lint::RunResult &result)
{
    std::string out =
        "{\n"
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"runs\": [\n"
        "    {\n"
        "      \"tool\": {\n"
        "        \"driver\": {\n"
        "          \"name\": \"hllc_lint\",\n"
        "          \"rules\": [";
    bool first = true;
    for (const std::string &rule : lint::allRules()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "            {\"id\": \"" + jsonEscape(rule) + "\"}";
    }
    out += "\n          ]\n"
           "        }\n"
           "      },\n"
           "      \"results\": [";
    first = true;
    for (const lint::Finding &finding : result.findings) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "        {\"ruleId\": \"" + jsonEscape(finding.rule) +
               "\", \"level\": \"error\", \"message\": {\"text\": \"" +
               jsonEscape(finding.message) +
               "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \"" +
               jsonEscape(finding.file) +
               "\"}, \"region\": {\"startLine\": " +
               formatU64(static_cast<std::uint64_t>(
                   finding.line < 1 ? 1 : finding.line)) +
               "}}}]}";
    }
    out += first ? "]\n" : "\n      ]\n";
    out += "    }\n  ]\n}\n";
    return out;
}

} // namespace hllc::analysis
