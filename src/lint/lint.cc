#include "lint/lint.hh"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <set>

#include "common/error.hh"
#include "common/numfmt.hh"

namespace fs = std::filesystem;

namespace hllc::lint
{

namespace
{

bool
lintableExtension(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".hh" ||
           ext == ".h" || ext == ".hpp";
}

/** `file|rule|line-text` — see formatBaseline(). */
std::string
baselineKey(const Finding &finding)
{
    return finding.file + "|" + finding.rule + "|" + finding.lineText;
}

/** JSON string escaping for the report emitter. */
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

std::vector<std::string>
collectLintFiles(const std::string &root_str,
                 const std::vector<std::string> &paths)
{
    const fs::path root =
        root_str.empty() ? fs::path(".") : fs::path(root_str);
    std::vector<std::string> requested = paths;
    if (requested.empty())
        requested = { "src", "tools", "bench", "tests", "examples" };
    std::vector<std::string> files;
    for (const std::string &entry : requested) {
        const fs::path abs = root / entry;
        std::error_code ec;
        if (fs::is_regular_file(abs, ec)) {
            files.push_back(
                fs::path(entry).generic_string());
            continue;
        }
        if (!fs::is_directory(abs, ec)) {
            throw IoError("lint path does not exist: " + abs.string());
        }
        for (fs::recursive_directory_iterator it(abs, ec), end;
             it != end; it.increment(ec)) {
            if (ec)
                throw IoError("cannot walk " + abs.string() + ": " +
                              ec.message());
            if (!it->is_regular_file() ||
                !lintableExtension(it->path())) {
                continue;
            }
            files.push_back(
                it->path().lexically_relative(root).generic_string());
        }
        if (ec)
            throw IoError("cannot walk " + abs.string() + ": " +
                          ec.message());
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

void
checkIncludeCycles(
    const std::map<std::string, std::vector<std::string>> &graph,
    std::vector<Finding> &findings)
{
    enum class Color { White, Grey, Black };
    std::map<std::string, Color> color;
    std::vector<std::string> stack;

    const std::function<void(const std::string &)> visit =
        [&](const std::string &node) {
            color[node] = Color::Grey;
            stack.push_back(node);
            const auto edges = graph.find(node);
            if (edges != graph.end()) {
                for (const std::string &next : edges->second) {
                    if (graph.find(next) == graph.end())
                        continue;
                    const Color c = color.count(next) != 0
                        ? color[next] : Color::White;
                    if (c == Color::White) {
                        visit(next);
                    } else if (c == Color::Grey) {
                        std::string chain = next;
                        for (auto it = std::find(stack.begin(),
                                                 stack.end(), next);
                             it != stack.end(); ++it) {
                            if (*it != next)
                                chain += " -> " + *it;
                        }
                        chain += " -> " + next;
                        findings.push_back(
                            { node, 1, "include-graph",
                              "include cycle: " + chain, "" });
                    }
                }
            }
            stack.pop_back();
            color[node] = Color::Black;
        };

    for (const auto &entry : graph) {
        if (color.count(entry.first) == 0 ||
            color[entry.first] == Color::White) {
            visit(entry.first);
        }
    }
}

void
subtractBaseline(const std::string &baselineText, RunResult &result)
{
    std::multiset<std::string> baseline;
    std::string line;
    for (std::size_t i = 0; i <= baselineText.size(); ++i) {
        if (i == baselineText.size() || baselineText[i] == '\n') {
            if (!line.empty() && line[0] != '#')
                baseline.insert(line);
            line.clear();
        } else if (baselineText[i] != '\r') {
            line += baselineText[i];
        }
    }
    std::vector<Finding> kept;
    for (Finding &finding : result.findings) {
        const auto it = baseline.find(baselineKey(finding));
        if (it != baseline.end()) {
            baseline.erase(it);
            ++result.baselined;
        } else {
            kept.push_back(std::move(finding));
        }
    }
    result.findings = std::move(kept);
    result.staleBaseline = baseline.size();
}

std::string
formatBaseline(const std::vector<Finding> &findings)
{
    std::string out =
        "# hllc_lint baseline: file|rule|offending line text.\n"
        "# Regenerate with: hllc_lint --write-baseline <this file>\n";
    for (const Finding &finding : findings)
        out += baselineKey(finding) + "\n";
    return out;
}

std::string
formatText(const RunResult &result)
{
    std::string out;
    for (const Finding &finding : result.findings) {
        out += finding.file + ":" +
               formatU64(static_cast<std::uint64_t>(
                   finding.line < 0 ? 0 : finding.line)) +
               ": [" + finding.rule + "] " + finding.message + "\n";
    }
    out += formatU64(result.findings.size()) + " finding(s) in " +
           formatU64(result.filesScanned) + " file(s)";
    if (result.baselined != 0)
        out += ", " + formatU64(result.baselined) + " baselined";
    if (result.staleBaseline != 0) {
        out += ", " + formatU64(result.staleBaseline) +
               " stale baseline entr(y/ies)";
    }
    out += "\n";
    return out;
}

std::string
formatJson(const RunResult &result)
{
    std::map<std::string, std::uint64_t> counts;
    for (const std::string &rule : allRules())
        counts[rule] = 0;
    for (const Finding &finding : result.findings)
        ++counts[finding.rule];

    std::string out = "{\n  \"schema\": \"hllc-lint-v1\",\n";
    out += "  \"files_scanned\": " + formatU64(result.filesScanned) +
           ",\n";
    out += "  \"baselined\": " + formatU64(result.baselined) + ",\n";
    out += "  \"stale_baseline\": " + formatU64(result.staleBaseline) +
           ",\n";
    out += "  \"counts\": {";
    bool first = true;
    for (const auto &entry : counts) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(entry.first) + "\": " +
               formatU64(entry.second);
    }
    out += "\n  },\n  \"findings\": [";
    first = true;
    for (const Finding &finding : result.findings) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"file\": \"" + jsonEscape(finding.file) +
               "\", \"line\": " +
               formatU64(static_cast<std::uint64_t>(
                   finding.line < 0 ? 0 : finding.line)) +
               ", \"rule\": \"" + jsonEscape(finding.rule) +
               "\", \"message\": \"" + jsonEscape(finding.message) +
               "\"}";
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

} // namespace hllc::lint
