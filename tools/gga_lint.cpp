/**
 * @file
 * gga_lint: the project-invariant checker. Greps with a lexer, not a
 * parser — it strips comments and string literals first, so a comment
 * mentioning std::mutex or a doc example using rand() never trips it —
 * and applies repo-specific rules that generic tools cannot know:
 *
 *   determinism-rng        src/sim/, src/graph/ and reference/ are the
 *                          determinism core behind the golden tests:
 *                          no rand()/srand()/random_device — use
 *                          support/rng.
 *   determinism-unordered  no std::unordered_map/set in the determinism
 *                          core: iteration order is
 *                          implementation-defined and has already been
 *                          a source of nondeterminism bugs in graph
 *                          codes — use support/flat_map.hpp or a sorted
 *                          container.
 *   raw-new                no raw new/delete expressions in src/ outside
 *                          support/object_pool.hpp (placement new is
 *                          fine): ownership goes through containers,
 *                          smart pointers, or the pool.
 *   locale-float           src/support/json.*, src/support/table.*, and
 *                          src/harness/figures.* produce byte-identity-
 *                          gated output: no locale-dependent float
 *                          formatting or parsing (printf %f/%g/%e,
 *                          setprecision, strtod/stod/atof, setlocale) —
 *                          use std::to_chars / std::from_chars.
 *   raw-mutex              no std::mutex / std::condition_variable /
 *                          std::lock_guard / std::unique_lock /
 *                          std::scoped_lock in src/ outside
 *                          support/thread_annotations.hpp: shared state
 *                          uses the annotated gga::Mutex vocabulary so
 *                          clang -Wthread-safety sees every lock.
 *   lenient-parse          no std::stoi/stol/stoll/stoul/stoull,
 *                          atoi/atol/atoll, strtol/strtoll/strtoul/
 *                          strtoull or istringstream anywhere in src/:
 *                          they skip leading space, take a sign, stop at
 *                          trailing garbage or wrap, so a number from
 *                          outside parses to something it never said —
 *                          use parseUnsigned (support/parse.hpp), which
 *                          takes the whole text as digits within a
 *                          bound.
 *
 * Usage:
 *   gga_lint [--root DIR]              lint src/ and reference/ under DIR
 *                                      (default .)
 *   gga_lint [--as RELPATH] FILE...    lint FILEs, scoping rules as if
 *                                      each lived at RELPATH (fixture
 *                                      self-tests)
 *
 * Exit: 0 clean, 1 findings, 2 usage/IO error.
 * Findings print as "path:line: [rule] message" — clickable, greppable.
 */

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding
{
    std::string file;
    std::size_t line;
    std::string rule;
    std::string message;
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Split @p text into two same-length views: @p code keeps everything
 * outside comments and literals (the rest blanked with spaces, newlines
 * preserved), @p strings keeps only the contents of string literals
 * (everything else blanked). Rules over tokens use the code view; rules
 * over format strings use the strings view. Handles //, block comments,
 * escapes, char literals, and R"delim(...)delim" raw strings.
 */
void
lexViews(const std::string& text, std::string& code, std::string& strings)
{
    code.assign(text.size(), ' ');
    strings.assign(text.size(), ' ');
    enum class St
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    St st = St::Code;
    std::string rawEnd; // ")delim\"" terminator of the active raw string
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '\n') { // keep line structure in both views
            code[i] = '\n';
            strings[i] = '\n';
            if (st == St::LineComment)
                st = St::Code;
            continue;
        }
        switch (st) {
        case St::Code:
            if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
                st = St::LineComment;
            } else if (c == '/' && i + 1 < text.size() &&
                       text[i + 1] == '*') {
                st = St::BlockComment;
                ++i;
            } else if (c == '"') {
                // R"delim( ... )delim" — only when R directly abuts the
                // quote and is not the tail of a longer identifier.
                if (i >= 1 && text[i - 1] == 'R' &&
                    (i < 2 || !isIdentChar(text[i - 2]))) {
                    std::string delim;
                    std::size_t j = i + 1;
                    while (j < text.size() && text[j] != '(' &&
                           delim.size() <= 16)
                        delim.push_back(text[j++]);
                    if (j < text.size() && text[j] == '(') {
                        rawEnd = ")" + delim + "\"";
                        st = St::RawString;
                        i = j; // skip past the opening '('
                        break;
                    }
                }
                st = St::String;
            } else if (c == '\'') {
                // Heuristic: a quote after an identifier/digit is a
                // digit separator (1'000'000), not a char literal.
                if (!(i >= 1 && isIdentChar(text[i - 1])))
                    st = St::Char;
            } else {
                code[i] = c;
            }
            break;
        case St::LineComment:
            break;
        case St::BlockComment:
            if (c == '*' && i + 1 < text.size() && text[i + 1] == '/') {
                ++i;
                st = St::Code;
            }
            break;
        case St::String:
            if (c == '\\' && i + 1 < text.size()) {
                strings[i] = c;
                if (text[i + 1] != '\n')
                    strings[i + 1] = text[i + 1];
                ++i;
            } else if (c == '"') {
                st = St::Code;
            } else {
                strings[i] = c;
            }
            break;
        case St::Char:
            if (c == '\\' && i + 1 < text.size())
                ++i;
            else if (c == '\'')
                st = St::Code;
            break;
        case St::RawString:
            if (text.compare(i, rawEnd.size(), rawEnd) == 0) {
                i += rawEnd.size() - 1;
                st = St::Code;
            } else {
                strings[i] = c;
            }
            break;
        }
    }
}

/**
 * Blank preprocessor directives (and their backslash continuations) in
 * the code view: `#include <mutex>` is how the exempt wrapper gets the
 * raw type, not a use of it.
 */
void
blankPreprocessorLines(std::string& code)
{
    std::size_t lineStart = 0;
    while (lineStart < code.size()) {
        std::size_t eol = code.find('\n', lineStart);
        if (eol == std::string::npos)
            eol = code.size();
        std::size_t i = lineStart;
        while (i < eol && (code[i] == ' ' || code[i] == '\t'))
            ++i;
        if (i < eol && code[i] == '#') {
            bool continued = true;
            while (continued) {
                continued = false;
                for (std::size_t j = lineStart; j < eol; ++j) {
                    if (code[j] == '\\' && j + 1 == eol)
                        continued = true;
                    code[j] = ' ';
                }
                if (continued && eol < code.size()) {
                    lineStart = eol + 1;
                    eol = code.find('\n', lineStart);
                    if (eol == std::string::npos)
                        eol = code.size();
                }
            }
        }
        lineStart = eol + 1;
    }
}

std::size_t
lineOf(const std::string& text, std::size_t pos)
{
    return 1 + static_cast<std::size_t>(
                   std::count(text.begin(), text.begin() +
                              static_cast<std::ptrdiff_t>(pos), '\n'));
}

/** Next whole-identifier occurrence of @p word in @p code from @p from. */
std::size_t
findIdent(const std::string& code, const std::string& word,
          std::size_t from)
{
    for (std::size_t pos = code.find(word, from);
         pos != std::string::npos; pos = code.find(word, pos + 1)) {
        const bool leftOk = pos == 0 || !isIdentChar(code[pos - 1]);
        const std::size_t end = pos + word.size();
        const bool rightOk = end >= code.size() || !isIdentChar(code[end]);
        if (leftOk && rightOk)
            return pos;
    }
    return std::string::npos;
}

void
flagIdents(const std::string& code, const std::vector<std::string>& words,
           const std::string& rule, const std::string& message,
           const std::string& path, std::vector<Finding>& out)
{
    for (const std::string& w : words) {
        for (std::size_t pos = findIdent(code, w, 0);
             pos != std::string::npos;
             pos = findIdent(code, w, pos + 1)) {
            out.push_back({path, lineOf(code, pos), rule,
                           w + ": " + message});
        }
    }
}

/** First non-space char at or after @p pos ('\0' at end). */
char
nextNonSpace(const std::string& s, std::size_t pos)
{
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n'))
        ++pos;
    return pos < s.size() ? s[pos] : '\0';
}

/** Last non-space char before @p pos ('\0' at start). */
char
prevNonSpace(const std::string& s, std::size_t pos)
{
    while (pos > 0) {
        const char c = s[--pos];
        if (c != ' ' && c != '\t' && c != '\n')
            return c;
    }
    return '\0';
}

void
checkRawNew(const std::string& code, const std::string& path,
            std::vector<Finding>& out)
{
    for (std::size_t pos = findIdent(code, "new", 0);
         pos != std::string::npos; pos = findIdent(code, "new", pos + 1)) {
        // Placement new — `new (addr) T` / `::new (addr) T` — is the
        // pool's own mechanism and allocates nothing.
        if (nextNonSpace(code, pos + 3) == '(')
            continue;
        // `#include <new>` leaves `new` followed by '>' in the code
        // view; anything not starting a type expression is not a
        // new-expression.
        const char next = nextNonSpace(code, pos + 3);
        if (!isIdentChar(next) && next != ':')
            continue;
        out.push_back({path, lineOf(code, pos), "raw-new",
                       "raw new expression: use containers, smart "
                       "pointers, or support/object_pool"});
    }
    for (std::size_t pos = findIdent(code, "delete", 0);
         pos != std::string::npos;
         pos = findIdent(code, "delete", pos + 1)) {
        if (prevNonSpace(code, pos) == '=')
            continue; // deleted function, not a delete-expression
        out.push_back({path, lineOf(code, pos), "raw-new",
                       "raw delete expression: use containers, smart "
                       "pointers, or support/object_pool"});
    }
}

void
checkLocaleFloat(const std::string& code, const std::string& strings,
                 const std::string& path, std::vector<Finding>& out)
{
    flagIdents(code,
               {"setprecision", "strtod", "strtof", "strtold", "stod",
                "stof", "stold", "atof", "setlocale", "localeconv"},
               "locale-float",
               "locale-dependent float formatting/parsing in a "
               "byte-identity-gated file: use std::to_chars / "
               "std::from_chars",
               path, out);
    // printf-family float conversions inside format strings:
    // %[flags][width][.prec][length] then one of eEfFgGaA.
    for (std::size_t i = 0; i + 1 < strings.size(); ++i) {
        if (strings[i] != '%')
            continue;
        std::size_t j = i + 1;
        if (j < strings.size() && strings[j] == '%') { // literal %%
            i = j;
            continue;
        }
        while (j < strings.size() &&
               (std::isdigit(static_cast<unsigned char>(strings[j])) ||
                strings[j] == '-' || strings[j] == '+' ||
                strings[j] == ' ' || strings[j] == '#' ||
                strings[j] == '.' || strings[j] == '*'))
            ++j;
        // length modifiers (l, L) before the conversion char
        while (j < strings.size() &&
               (strings[j] == 'l' || strings[j] == 'L'))
            ++j;
        if (j < strings.size() &&
            std::string("eEfFgGaA").find(strings[j]) != std::string::npos) {
            out.push_back(
                {path, lineOf(strings, i), "locale-float",
                 std::string("printf %") + strings[j] +
                     " conversion is locale-dependent (decimal point "
                     "follows LC_NUMERIC): use std::to_chars"});
        }
        i = j;
    }
}

bool
startsWith(const std::string& s, const std::string& prefix)
{
    return s.rfind(prefix, 0) == 0;
}

void
lintFile(const std::string& relPath, const std::string& text,
         std::vector<Finding>& out)
{
    std::string code, strings;
    lexViews(text, code, strings);
    blankPreprocessorLines(code);

    const bool inDeterminismCore = startsWith(relPath, "src/sim/") ||
                                   startsWith(relPath, "src/graph/") ||
                                   startsWith(relPath, "reference/");
    const bool inSrc = startsWith(relPath, "src/");
    const bool byteIdentityGated =
        startsWith(relPath, "src/support/json.") ||
        startsWith(relPath, "src/support/table.") ||
        startsWith(relPath, "src/harness/figures.");

    if (inDeterminismCore) {
        flagIdents(code,
                   {"rand", "srand", "rand_r", "drand48", "lrand48",
                    "random_device"},
                   "determinism-rng",
                   "nondeterministic RNG in the determinism core (golden "
                   "tests pin results): use support/rng",
                   relPath, out);
        flagIdents(code, {"unordered_map", "unordered_set"},
                   "determinism-unordered",
                   "iteration order is implementation-defined; use "
                   "support/flat_map.hpp or a sorted container",
                   relPath, out);
    }
    if (inSrc && relPath != "src/support/object_pool.hpp")
        checkRawNew(code, relPath, out);
    if (byteIdentityGated)
        checkLocaleFloat(code, strings, relPath, out);
    if (inSrc && relPath != "src/support/thread_annotations.hpp") {
        flagIdents(code,
                   {"mutex", "condition_variable", "lock_guard",
                    "unique_lock", "scoped_lock", "condition_variable_any",
                    "shared_mutex", "recursive_mutex"},
                   "raw-mutex",
                   "raw standard lock type: use the annotated "
                   "gga::Mutex/MutexLock/CondVar from "
                   "support/thread_annotations.hpp so clang "
                   "-Wthread-safety can check the lock discipline",
                   relPath, out);
    }
    if (inSrc) {
        flagIdents(code,
                   {"stoi", "stol", "stoll", "stoul", "stoull", "atoi",
                    "atol", "atoll", "strtol", "strtoll", "strtoul",
                    "strtoull", "istringstream"},
                   "lenient-parse",
                   "lenient number parse (takes leading space, a sign or "
                   "trailing garbage): use parseUnsigned from "
                   "support/parse.hpp",
                   relPath, out);
    }
}

bool
lintableExtension(const fs::path& p)
{
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::string
readFileOrDie(const fs::path& p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in) {
        std::cerr << "gga_lint: cannot open " << p << "\n";
        std::exit(2);
    }
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    std::string root = ".";
    std::string asPath;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--as" && i + 1 < argc) {
            asPath = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: gga_lint [--root DIR] "
                         "[--as RELPATH] [FILE...]\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "gga_lint: unknown option " << arg << "\n";
            return 2;
        } else {
            files.push_back(arg);
        }
    }

    std::vector<Finding> findings;
    std::size_t scanned = 0;
    if (!files.empty()) {
        for (const std::string& f : files) {
            const std::string effective = asPath.empty() ? f : asPath;
            lintFile(effective, readFileOrDie(f), findings);
            ++scanned;
        }
    } else {
        if (!fs::is_directory(fs::path(root) / "src")) {
            std::cerr << "gga_lint: no src/ under " << root << "\n";
            return 2;
        }
        std::vector<fs::path> paths;
        for (const char* top : {"src", "reference"}) {
            const fs::path dir = fs::path(root) / top;
            if (!fs::is_directory(dir))
                continue;
            for (const auto& entry : fs::recursive_directory_iterator(dir))
                if (entry.is_regular_file() &&
                    lintableExtension(entry.path()))
                    paths.push_back(entry.path());
        }
        // Deterministic report order regardless of directory order.
        std::sort(paths.begin(), paths.end());
        for (const fs::path& p : paths) {
            const std::string rel =
                fs::relative(p, fs::path(root)).generic_string();
            lintFile(rel, readFileOrDie(p), findings);
            ++scanned;
        }
    }

    for (const Finding& f : findings)
        std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
    std::cerr << "gga_lint: " << scanned << " files, " << findings.size()
              << " finding" << (findings.size() == 1 ? "" : "s") << "\n";
    return findings.empty() ? 0 : 1;
}
