#include "analysis/index.hh"

#include <cctype>
#include <map>

#include "lint/lexer.hh"

namespace hllc::analysis
{

namespace
{

using lint::Token;
using lint::TokKind;

/**
 * Keywords never recorded as references: they carry no cross-file
 * meaning, and dropping them keeps the per-file symbol table (and so
 * the cache) small.
 */
const std::set<std::string> &
keywords()
{
    static const std::set<std::string> words = {
        "alignas",  "alignof",  "auto",      "bool",     "break",
        "case",     "catch",    "char",      "class",    "const",
        "constexpr", "const_cast", "continue", "decltype", "default",
        "delete",   "do",       "double",    "dynamic_cast", "else",
        "enum",     "explicit", "extern",    "false",    "final",
        "float",    "for",      "friend",    "goto",     "if",
        "inline",   "int",      "long",      "mutable",  "namespace",
        "new",      "noexcept", "nullptr",   "operator", "override",
        "private",  "protected", "public",   "register", "reinterpret_cast",
        "return",   "short",    "signed",    "sizeof",   "static",
        "static_assert", "static_cast", "struct", "switch", "template",
        "this",     "throw",    "true",      "try",      "typedef",
        "typeid",   "typename", "union",     "unsigned", "using",
        "virtual",  "void",     "volatile",  "while",
    };
    return words;
}

/** Keywords that open a plain control-flow block, never a function. */
const std::set<std::string> &
controlKeywords()
{
    static const std::set<std::string> words = {
        "if", "else", "for", "while", "switch", "do", "try", "catch",
    };
    return words;
}

bool
isIdent(const std::vector<Token> &code, std::size_t i)
{
    return i < code.size() && code[i].kind == TokKind::Identifier;
}

bool
isPunct(const std::vector<Token> &code, std::size_t i, char c)
{
    return i < code.size() && code[i].kind == TokKind::Punct &&
           code[i].text.size() == 1 && code[i].text[0] == c;
}

/** `.x` or `->x` directly before code[i]. */
bool
memberAccessBefore(const std::vector<Token> &code, std::size_t i)
{
    if (i >= 1 && isPunct(code, i - 1, '.'))
        return true;
    return i >= 2 && isPunct(code, i - 2, '-') && isPunct(code, i - 1, '>');
}

/** `::x` with nothing (or a non-identifier) before the `::`. */
bool
globalQualified(const std::vector<Token> &code, std::size_t i)
{
    if (i < 2 || !isPunct(code, i - 1, ':') || !isPunct(code, i - 2, ':'))
        return false;
    if (i < 3 || code[i - 3].kind != TokKind::Identifier)
        return true;
    // `return ::open(...)`: a statement keyword before `::` does not
    // qualify the name; only a real scope name does.
    static const std::set<std::string> statement_keywords = {
        "return", "throw", "co_return", "co_yield", "else", "do",
    };
    return statement_keywords.count(code[i - 3].text) != 0;
}

/** Index just past the `)` matching the `(` at @p open. */
std::size_t
matchParen(const std::vector<Token> &code, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (isPunct(code, i, '('))
            ++depth;
        else if (isPunct(code, i, ')') && --depth == 0)
            return i + 1;
    }
    return code.size();
}

/** Last identifier text in code[(begin, end)); "" when none. */
std::string
lastIdentIn(const std::vector<Token> &code, std::size_t begin,
            std::size_t end)
{
    std::string last;
    for (std::size_t i = begin; i < end && i < code.size(); ++i) {
        if (code[i].kind == TokKind::Identifier)
            last = code[i].text;
    }
    return last;
}

/** The block-context classifier's verdict for one `{`. */
enum class CtxKind
{
    Namespace,
    Class,
    Enum,
    Function,
    Block,
};

/** One open brace on the context stack. */
struct Ctx
{
    CtxKind kind = CtxKind::Block;
    std::string name;              //!< class or function name
    std::size_t fnIndex = SIZE_MAX; //!< FunctionDef slot when Function
    std::vector<std::size_t> locks; //!< LockScopes this brace closes
};

/**
 * Start of the head of the `{` at @p brace: scan back to the nearest
 * `;` / `{` / `}` at paren balance zero (so `for (a; b; c) {` keeps its
 * whole head).
 */
std::size_t
headBegin(const std::vector<Token> &code, std::size_t brace)
{
    int balance = 0;
    std::size_t i = brace;
    while (i > 0) {
        --i;
        if (isPunct(code, i, ')'))
            ++balance;
        else if (isPunct(code, i, '('))
            --balance;
        else if (balance == 0 &&
                 (isPunct(code, i, ';') || isPunct(code, i, '{') ||
                  isPunct(code, i, '}'))) {
            return i + 1;
        }
    }
    return 0;
}

/** First identifier after @p from that is not a macro call `NAME(...)`. */
std::string
nameAfterKeyword(const std::vector<Token> &code, std::size_t from,
                 std::size_t end)
{
    for (std::size_t i = from; i < end; ++i) {
        if (!isIdent(code, i))
            continue;
        if (code[i].text == "class" || code[i].text == "struct" ||
            code[i].text == "union" || code[i].text == "enum" ||
            code[i].text == "final") {
            continue; // enum class X / struct X final
        }
        if (isPunct(code, i + 1, '(')) {
            i = matchParen(code, i + 1) - 1; // attribute macro
            continue;
        }
        return code[i].text;
    }
    return "";
}

/** Per-file indexing pass (one instance per buildFileIndex call). */
struct Indexer
{
    const std::string &path;
    const std::vector<Token> &code;
    FileIndex out;
    std::map<std::string, std::uint32_t> symIds;
    std::vector<Ctx> stack;
    int lastLine = 1;

    std::uint32_t
    symbol(const std::string &text)
    {
        const auto it = symIds.find(text);
        if (it != symIds.end())
            return it->second;
        const auto id = static_cast<std::uint32_t>(out.symbols.size());
        out.symbols.push_back(text);
        symIds.emplace(text, id);
        return id;
    }

    CtxKind
    innermost() const
    {
        return stack.empty() ? CtxKind::Namespace : stack.back().kind;
    }

    /** Innermost enclosing class/struct name ("" at other scopes). */
    std::string
    enclosingClass() const
    {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            if (it->kind == CtxKind::Class)
                return it->name;
        }
        return "";
    }

    bool
    inFunctionNamed(const std::string &name) const
    {
        for (const Ctx &ctx : stack) {
            if (ctx.kind == CtxKind::Function && ctx.name == name)
                return true;
        }
        return false;
    }

    bool
    inFunctionBody() const
    {
        for (const Ctx &ctx : stack) {
            if (ctx.kind == CtxKind::Function)
                return true;
        }
        return false;
    }

    /** Declaration-scope = namespace/class body, not inside any code. */
    bool
    atDeclScope() const
    {
        const CtxKind kind = innermost();
        return (kind == CtxKind::Namespace || kind == CtxKind::Class) &&
               !inFunctionBody();
    }

    void declare(std::string name, DeclKind kind, int line);
    void classifyBrace(std::size_t brace);
    void handleIdent(std::size_t i);
    void run();
};

void
Indexer::declare(std::string name, DeclKind kind, int line)
{
    if (name.empty() || keywords().count(name) != 0)
        return;
    out.decls.push_back({ std::move(name), kind, line });
}

void
Indexer::classifyBrace(std::size_t brace)
{
    Ctx ctx;
    const std::size_t begin = headBegin(code, brace);

    bool has_assign = false;
    bool has_control = false;
    bool has_namespace = false;
    bool has_class = false;
    bool has_enum = false;
    for (std::size_t i = begin; i < brace; ++i) {
        if (code[i].kind == TokKind::Identifier) {
            if (controlKeywords().count(code[i].text) != 0)
                has_control = true;
            else if (code[i].text == "namespace")
                has_namespace = true;
            else if (code[i].text == "class" ||
                     code[i].text == "struct" ||
                     code[i].text == "union") {
                has_class = true;
            } else if (code[i].text == "enum") {
                has_enum = true;
            }
        } else if (isPunct(code, i, '=')) {
            has_assign = true;
        }
    }

    if (inFunctionBody() || has_control || has_assign) {
        ctx.kind = CtxKind::Block; // statement, lambda or initializer
    } else if (has_namespace) {
        ctx.kind = CtxKind::Namespace;
    } else if (has_enum) {
        ctx.kind = CtxKind::Enum;
        ctx.name = nameAfterKeyword(code, begin, brace);
        declare(ctx.name, DeclKind::Type, code[brace].line);
    } else if (has_class) {
        ctx.kind = CtxKind::Class;
        for (std::size_t i = begin; i < brace; ++i) {
            if (isIdent(code, i) && (code[i].text == "class" ||
                                     code[i].text == "struct" ||
                                     code[i].text == "union")) {
                ctx.name = nameAfterKeyword(code, i + 1, brace);
                break;
            }
        }
        declare(ctx.name, DeclKind::Type, code[brace].line);
    } else {
        // A function definition iff the head holds `name(...)`.
        for (std::size_t i = begin; i < brace; ++i) {
            if (!isIdent(code, i) || !isPunct(code, i + 1, '(') ||
                keywords().count(code[i].text) != 0) {
                continue;
            }
            FunctionDef fn;
            fn.name = code[i].text;
            fn.line = code[begin].line;
            fn.bodyBegin = code[brace].line;
            // `A::B::name` written qualifier, innermost first.
            std::size_t j = i;
            while (j >= 3 && isPunct(code, j - 1, ':') &&
                   isPunct(code, j - 2, ':') && isIdent(code, j - 3)) {
                fn.qualifier = fn.qualifier.empty()
                    ? code[j - 3].text
                    : code[j - 3].text + "::" + fn.qualifier;
                j -= 3;
            }
            if (fn.qualifier.empty())
                fn.qualifier = enclosingClass();
            // HLLC_REQUIRES(m) between the parameter list and the body.
            for (std::size_t k = matchParen(code, i + 1); k < brace;
                 ++k) {
                if (isIdent(code, k) &&
                    code[k].text == "HLLC_REQUIRES" &&
                    isPunct(code, k + 1, '(')) {
                    const std::size_t close = matchParen(code, k + 1);
                    for (std::size_t a = k + 2; a + 1 < close; ++a) {
                        if (isIdent(code, a))
                            fn.requiresMutexes.push_back(code[a].text);
                    }
                }
            }
            ctx.kind = CtxKind::Function;
            ctx.name = fn.name;
            ctx.fnIndex = out.functions.size();
            declare(fn.name, DeclKind::Function, fn.line);
            out.functions.push_back(std::move(fn));
            break;
        }
    }
    stack.push_back(std::move(ctx));
}

void
Indexer::handleIdent(std::size_t i)
{
    const Token &tok = code[i];
    const bool called = isPunct(code, i + 1, '(');

    if (keywords().count(tok.text) == 0) {
        const bool qualified = i >= 3 && isPunct(code, i - 1, ':') &&
                               isPunct(code, i - 2, ':') &&
                               isIdent(code, i - 3);
        out.refs.push_back(
            { symbol(tok.text), tok.line, called, qualified });
    }

    // Enumerators: `A,` / `A = ...` / `A }` directly inside an enum.
    if (innermost() == CtxKind::Enum &&
        (isPunct(code, i + 1, ',') || isPunct(code, i + 1, '}') ||
         isPunct(code, i + 1, '='))) {
        declare(tok.text, DeclKind::Enumerator, tok.line);
    }

    if (atDeclScope()) {
        // `using X = ...` alias.
        if (tok.text == "using" && isIdent(code, i + 1) &&
            isPunct(code, i + 2, '=')) {
            declare(code[i + 1].text, DeclKind::Alias,
                    code[i + 1].line);
        }
        // `T name(...)` declarations and `T name = / ; / { / [` data.
        const bool type_before = i >= 1 &&
            ((isIdent(code, i - 1) &&
              controlKeywords().count(code[i - 1].text) == 0 &&
              code[i - 1].text != "return" &&
              code[i - 1].text != "throw") ||
             isPunct(code, i - 1, '>') || isPunct(code, i - 1, '*') ||
             isPunct(code, i - 1, '&') || isPunct(code, i - 1, '~'));
        if (type_before && keywords().count(tok.text) == 0) {
            if (called) {
                declare(tok.text, DeclKind::Function, tok.line);
            } else if (isPunct(code, i + 1, ';') ||
                       isPunct(code, i + 1, '=') ||
                       isPunct(code, i + 1, '{') ||
                       isPunct(code, i + 1, '[')) {
                declare(tok.text, DeclKind::Variable, tok.line);
            }
        }
        // `class X;` / `struct X;` forward declarations.
        if ((tok.text == "class" || tok.text == "struct" ||
             tok.text == "union") &&
            isIdent(code, i + 1) && isPunct(code, i + 2, ';')) {
            declare(code[i + 1].text, DeclKind::Type,
                    code[i + 1].line);
        }
    }

    // HLLC_FAILPOINT("name") / shouldFail("name") literal sites.
    if ((tok.text == "HLLC_FAILPOINT" || tok.text == "shouldFail") &&
        isPunct(code, i + 1, '(') && i + 2 < code.size() &&
        code[i + 2].kind == TokKind::String) {
        out.failpoints.push_back({ code[i + 2].text, tok.line,
                                   tok.text == "HLLC_FAILPOINT" });
    }

    // The closed catalog: string literals inside allFailpoints().
    // (Collected for every file; the engine only consults
    // common/failpoint.cc.)
    // -- handled in run() for String tokens.

    // Fields annotated HLLC_GUARDED_BY(m).
    if (tok.text == "HLLC_GUARDED_BY" && isPunct(code, i + 1, '(') &&
        i >= 1 && isIdent(code, i - 1)) {
        const std::size_t close = matchParen(code, i + 1);
        GuardedField field;
        field.name = code[i - 1].text;
        field.klass = enclosingClass();
        field.mutex = lastIdentIn(code, i + 2, close - 1);
        // The *name's* line, not the macro's: a declaration wrapped
        // across lines must still match its own reference.
        field.line = code[i - 1].line;
        if (!field.mutex.empty())
            out.guardedFields.push_back(std::move(field));
    }

    // `MutexLock lock(expr);` — the scope runs to the end of the
    // enclosing brace, recorded when that brace closes.
    if (tok.text == "MutexLock" && isIdent(code, i + 1) &&
        isPunct(code, i + 2, '(')) {
        const std::size_t close = matchParen(code, i + 2);
        LockScope scope;
        scope.mutex = lastIdentIn(code, i + 3, close - 1);
        scope.beginLine = tok.line;
        if (!scope.mutex.empty() && !stack.empty()) {
            stack.back().locks.push_back(out.lockScopes.size());
            out.lockScopes.push_back(std::move(scope));
        }
    }

    // Fallible syscall wrappers for failpoint-coverage.
    static const std::set<std::string> syscalls = {
        "open", "write", "rename", "fsync", "fork",
    };
    if (syscalls.count(tok.text) != 0 && called &&
        !memberAccessBefore(code, i)) {
        bool site = globalQualified(code, i);
        if (!site && !(i >= 2 && isPunct(code, i - 1, ':') &&
                       isPunct(code, i - 2, ':'))) {
            // Unqualified: only clear call syntax counts (`= write(`,
            // `if (fsync(`, `return fork()`); an identifier or `*`/`&`
            // before the name reads as a declaration and is skipped.
            if (i == 0) {
                site = false;
            } else if (code[i - 1].kind == TokKind::Identifier) {
                site = code[i - 1].text == "return" ||
                       code[i - 1].text == "throw";
            } else if (code[i - 1].kind == TokKind::Punct) {
                static const std::string callish = "=(,;{!?:|";
                site = code[i - 1].text.size() == 1 &&
                       callish.find(code[i - 1].text[0]) !=
                           std::string::npos;
            }
        }
        if (site && inFunctionBody())
            out.syscalls.push_back({ tok.text, tok.line });
    }

    // rng-discipline sites (banned generators are the determinism
    // rule's: lint/rules.cc).
    if (tok.text == "Xoshiro256StarStar" &&
        !memberAccessBefore(code, i)) {
        // `Xoshiro256StarStar rng(expr)` / `... rng = expr;` /
        // `Xoshiro256StarStar(expr)` — anything that actually seeds.
        std::size_t v = i + 1;
        std::size_t init_begin = 0;
        std::size_t init_end = 0;
        if (isIdent(code, v)) {
            if (isPunct(code, v + 1, '(')) {
                init_begin = v + 2;
                init_end = matchParen(code, v + 1) - 1;
            } else if (isPunct(code, v + 1, '=')) {
                init_begin = v + 2;
                init_end = init_begin;
                while (init_end < code.size() &&
                       !isPunct(code, init_end, ';')) {
                    ++init_end;
                }
            }
        } else if (isPunct(code, v, '(')) {
            init_begin = v + 1;
            init_end = matchParen(code, v) - 1;
        }
        if (init_begin != 0 && init_end > init_begin) {
            RngSite site;
            site.name = tok.text;
            site.line = tok.line;
            for (std::size_t k = init_begin; k < init_end; ++k) {
                if (isIdent(code, k))
                    site.seedIdents.push_back(code[k].text);
            }
            out.rngSites.push_back(std::move(site));
        }
    }
}

void
Indexer::run()
{
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Token &tok = code[i];
        lastLine = tok.endLine > 0 ? tok.endLine : tok.line;

        if (tok.kind == TokKind::Identifier) {
            handleIdent(i);
            continue;
        }
        if (tok.kind == TokKind::String) {
            if (inFunctionNamed("allFailpoints"))
                out.catalog.push_back({ tok.text, tok.line });
            // Literal JSON object keys: `\"key\":` inside the text
            // (escape sequences are preserved verbatim by the lexer).
            const std::string &s = tok.text;
            for (std::size_t p = 0; p + 3 < s.size(); ++p) {
                if (s[p] != '\\' || s[p + 1] != '"')
                    continue;
                std::size_t q = p + 2;
                std::string key;
                while (q < s.size() &&
                       (std::isalnum(
                            static_cast<unsigned char>(s[q])) ||
                        s[q] == '_' || s[q] == '.' || s[q] == '-')) {
                    key += s[q++];
                }
                if (key.empty() || q + 1 >= s.size() ||
                    s[q] != '\\' || s[q + 1] != '"') {
                    continue;
                }
                q += 2;
                while (q < s.size() && s[q] == ' ')
                    ++q;
                if (q < s.size() && s[q] == ':') {
                    out.jsonKeys.push_back({ key, tok.line });
                    p = q - 1;
                }
            }
            continue;
        }
        if (tok.kind == TokKind::Punct && tok.text == "{") {
            classifyBrace(i);
            continue;
        }
        if (tok.kind == TokKind::Punct && tok.text == "}") {
            if (!stack.empty()) {
                Ctx ctx = std::move(stack.back());
                stack.pop_back();
                if (ctx.fnIndex != SIZE_MAX)
                    out.functions[ctx.fnIndex].bodyEnd = tok.line;
                for (std::size_t lock : ctx.locks)
                    out.lockScopes[lock].endLine = tok.line;
            }
            continue;
        }
    }
    // Unterminated scopes (macro-heavy or malformed input): close at
    // the last seen line so line-range queries stay sane.
    while (!stack.empty()) {
        Ctx ctx = std::move(stack.back());
        stack.pop_back();
        if (ctx.fnIndex != SIZE_MAX &&
            out.functions[ctx.fnIndex].bodyEnd == 0) {
            out.functions[ctx.fnIndex].bodyEnd = lastLine;
        }
        for (std::size_t lock : ctx.locks)
            out.lockScopes[lock].endLine = lastLine;
    }
}

} // anonymous namespace

std::set<std::string>
FileIndex::identifierSet() const
{
    std::set<std::string> names;
    for (const std::string &sym : symbols)
        names.insert(sym);
    return names;
}

std::uint64_t
contentHash(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : text) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

FileIndex
buildFileIndex(const std::string &path, const std::string &content)
{
    const std::vector<Token> tokens = lint::lex(content);
    std::vector<Token> code;
    code.reserve(tokens.size());

    FileIndex out;
    out.path = path;
    out.contentHash = contentHash(content);

    std::map<std::string, std::uint32_t> payload_syms;
    for (const Token &tok : tokens) {
        if (tok.kind == TokKind::Comment)
            continue;
        if (tok.kind == TokKind::Directive) {
            if (tok.text == "include") {
                if (tok.payload.size() >= 2 &&
                    tok.payload.front() == '"' &&
                    tok.payload.back() == '"') {
                    out.includes.push_back(
                        { tok.payload.substr(1, tok.payload.size() - 2),
                          tok.line });
                }
                continue;
            }
            if (tok.text == "define") {
                std::string name;
                for (char c : tok.payload) {
                    if (std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_') {
                        name += c;
                    } else {
                        break;
                    }
                }
                if (!name.empty())
                    out.decls.push_back(
                        { name, DeclKind::Macro, tok.line });
            }
            continue;
        }
        code.push_back(tok);
    }

    Indexer indexer{ path, code, std::move(out), {}, {}, 1 };
    indexer.run();

    // Identifier-ish words of non-include directive payloads count as
    // references too: a macro used only inside `#if` must still mark
    // its defining header as used.
    for (const Token &tok : tokens) {
        if (tok.kind != TokKind::Directive || tok.text == "include")
            continue;
        std::string word;
        const std::string text = tok.payload + " ";
        for (char c : text) {
            if (std::isalnum(static_cast<unsigned char>(c)) ||
                c == '_') {
                word += c;
                continue;
            }
            if (!word.empty() && keywords().count(word) == 0 &&
                !std::isdigit(static_cast<unsigned char>(word[0]))) {
                indexer.out.refs.push_back(
                    { indexer.symbol(word), tok.line, false });
            }
            word.clear();
        }
    }

    indexer.out.waivers = lint::parseWaivers(content);
    return std::move(indexer.out);
}

void
encodeFileIndex(serial::Encoder &enc, const FileIndex &index)
{
    enc.str(index.path);
    enc.u64(index.contentHash);
    enc.u64(index.includes.size());
    for (const IncludeRef &inc : index.includes) {
        enc.str(inc.path);
        enc.u32(static_cast<std::uint32_t>(inc.line));
    }
    enc.u64(index.decls.size());
    for (const Declaration &decl : index.decls) {
        enc.str(decl.name);
        enc.u8(static_cast<std::uint8_t>(decl.kind));
        enc.u32(static_cast<std::uint32_t>(decl.line));
    }
    enc.u64(index.functions.size());
    for (const FunctionDef &fn : index.functions) {
        enc.str(fn.name);
        enc.str(fn.qualifier);
        enc.u32(static_cast<std::uint32_t>(fn.line));
        enc.u32(static_cast<std::uint32_t>(fn.bodyBegin));
        enc.u32(static_cast<std::uint32_t>(fn.bodyEnd));
        enc.u64(fn.requiresMutexes.size());
        for (const std::string &m : fn.requiresMutexes)
            enc.str(m);
    }
    enc.u64(index.symbols.size());
    for (const std::string &sym : index.symbols)
        enc.str(sym);
    enc.u64(index.refs.size());
    for (const IdentRef &ref : index.refs) {
        enc.u32(ref.sym);
        enc.u32(static_cast<std::uint32_t>(ref.line));
        enc.u8(static_cast<std::uint8_t>((ref.called ? 1 : 0) |
                                         (ref.qualified ? 2 : 0)));
    }
    enc.u64(index.syscalls.size());
    for (const SyscallSite &site : index.syscalls) {
        enc.str(site.name);
        enc.u32(static_cast<std::uint32_t>(site.line));
    }
    enc.u64(index.failpoints.size());
    for (const FailpointSite &site : index.failpoints) {
        enc.str(site.name);
        enc.u32(static_cast<std::uint32_t>(site.line));
        enc.u8(site.macroSite ? 1 : 0);
    }
    enc.u64(index.catalog.size());
    for (const CatalogEntry &entry : index.catalog) {
        enc.str(entry.name);
        enc.u32(static_cast<std::uint32_t>(entry.line));
    }
    enc.u64(index.guardedFields.size());
    for (const GuardedField &field : index.guardedFields) {
        enc.str(field.name);
        enc.str(field.klass);
        enc.str(field.mutex);
        enc.u32(static_cast<std::uint32_t>(field.line));
    }
    enc.u64(index.lockScopes.size());
    for (const LockScope &scope : index.lockScopes) {
        enc.str(scope.mutex);
        enc.u32(static_cast<std::uint32_t>(scope.beginLine));
        enc.u32(static_cast<std::uint32_t>(scope.endLine));
    }
    enc.u64(index.rngSites.size());
    for (const RngSite &site : index.rngSites) {
        enc.str(site.name);
        enc.u32(static_cast<std::uint32_t>(site.line));
        enc.u64(site.seedIdents.size());
        for (const std::string &ident : site.seedIdents)
            enc.str(ident);
    }
    enc.u64(index.jsonKeys.size());
    for (const JsonKey &key : index.jsonKeys) {
        enc.str(key.key);
        enc.u32(static_cast<std::uint32_t>(key.line));
    }
    enc.u64(index.waivers.size());
    for (const lint::Waiver &waiver : index.waivers) {
        enc.u32(static_cast<std::uint32_t>(waiver.firstLine));
        enc.u32(static_cast<std::uint32_t>(waiver.lastLine));
        enc.u64(waiver.rules.size());
        for (const std::string &rule : waiver.rules)
            enc.str(rule);
    }
}

FileIndex
decodeFileIndex(serial::Decoder &dec)
{
    FileIndex index;
    index.path = dec.str();
    index.contentHash = dec.u64();
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        IncludeRef inc;
        inc.path = dec.str();
        inc.line = static_cast<int>(dec.u32());
        index.includes.push_back(std::move(inc));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        Declaration decl;
        decl.name = dec.str();
        decl.kind = static_cast<DeclKind>(dec.u8());
        decl.line = static_cast<int>(dec.u32());
        index.decls.push_back(std::move(decl));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        FunctionDef fn;
        fn.name = dec.str();
        fn.qualifier = dec.str();
        fn.line = static_cast<int>(dec.u32());
        fn.bodyBegin = static_cast<int>(dec.u32());
        fn.bodyEnd = static_cast<int>(dec.u32());
        for (std::uint64_t m = dec.u64(); m != 0; --m)
            fn.requiresMutexes.push_back(dec.str());
        index.functions.push_back(std::move(fn));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n)
        index.symbols.push_back(dec.str());
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        IdentRef ref;
        ref.sym = dec.u32();
        ref.line = static_cast<int>(dec.u32());
        const std::uint8_t flags = dec.u8();
        ref.called = (flags & 1) != 0;
        ref.qualified = (flags & 2) != 0;
        index.refs.push_back(ref);
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        SyscallSite site;
        site.name = dec.str();
        site.line = static_cast<int>(dec.u32());
        index.syscalls.push_back(std::move(site));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        FailpointSite site;
        site.name = dec.str();
        site.line = static_cast<int>(dec.u32());
        site.macroSite = dec.u8() != 0;
        index.failpoints.push_back(std::move(site));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        CatalogEntry entry;
        entry.name = dec.str();
        entry.line = static_cast<int>(dec.u32());
        index.catalog.push_back(std::move(entry));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        GuardedField field;
        field.name = dec.str();
        field.klass = dec.str();
        field.mutex = dec.str();
        field.line = static_cast<int>(dec.u32());
        index.guardedFields.push_back(std::move(field));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        LockScope scope;
        scope.mutex = dec.str();
        scope.beginLine = static_cast<int>(dec.u32());
        scope.endLine = static_cast<int>(dec.u32());
        index.lockScopes.push_back(std::move(scope));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        RngSite site;
        site.name = dec.str();
        site.line = static_cast<int>(dec.u32());
        for (std::uint64_t m = dec.u64(); m != 0; --m)
            site.seedIdents.push_back(dec.str());
        index.rngSites.push_back(std::move(site));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        JsonKey key;
        key.key = dec.str();
        key.line = static_cast<int>(dec.u32());
        index.jsonKeys.push_back(std::move(key));
    }
    for (std::uint64_t n = dec.u64(); n != 0; --n) {
        lint::Waiver waiver;
        waiver.firstLine = static_cast<int>(dec.u32());
        waiver.lastLine = static_cast<int>(dec.u32());
        for (std::uint64_t m = dec.u64(); m != 0; --m)
            waiver.rules.insert(dec.str());
        index.waivers.push_back(std::move(waiver));
    }
    return index;
}

} // namespace hllc::analysis
