#include "graph/mtx_io.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/builder.hpp"
#include "support/parse.hpp"

namespace gga {

namespace {

/** Vertex ids are 32-bit; a larger size line cannot be a graph here. */
constexpr std::uint64_t kMaxVertices = std::numeric_limits<VertexId>::max();

/** @p line's fields into @p out, split on spaces and tabs; a trailing
 *  '\r' (a CRLF file) counts as space. */
void
split(std::string_view line, std::vector<std::string_view>& out)
{
    if (line.ends_with('\r'))
        line.remove_suffix(1);
    out.clear();
    std::size_t i = 0;
    while ((i = line.find_first_not_of(" \t", i)) != line.npos) {
        const std::size_t end = line.find_first_of(" \t", i);
        out.push_back(line.substr(i, end - i)); // npos: to the line's end
        i = end;
    }
}

/** Reads @p in to its next line that is neither blank nor a '%' comment
 *  and splits it into @p fields; false at the end of the stream. */
bool
nextDataLine(std::istream& in, std::string& line,
             std::vector<std::string_view>& fields)
{
    while (std::getline(in, line)) {
        split(line, fields);
        if (!fields.empty() && line[0] != '%')
            return true;
    }
    return false;
}

/** Whether std::from_chars reads all of @p tok as a number. */
bool
isNumber(std::string_view tok)
{
    double v = 0.0;
    const char* const end = tok.data() + tok.size();
    return std::from_chars(tok.data(), end, v).ptr == end;
}

} // namespace

CsrGraph
readMatrixMarket(std::istream& in, bool with_weights)
{
    std::string line;
    if (!std::getline(in, line))
        throw GraphError("empty MatrixMarket stream");

    std::string banner = line; // matched case-insensitively
    for (char& c : banner)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    std::vector<std::string_view> f;
    split(banner, f);
    if (f.size() != 5 || f[0] != "%%matrixmarket")
        throw GraphError("not a MatrixMarket banner: " + line);
    if (f[1] != "matrix" || f[2] != "coordinate")
        throw GraphError("only 'matrix coordinate' supported, got: " + line);
    if (f[3] != "pattern" && f[3] != "real" && f[3] != "integer")
        throw GraphError("unsupported field type: " + line);
    if (f[4] != "general" && f[4] != "symmetric")
        throw GraphError("unsupported symmetry: " + line);
    // An entry is "row col", plus one numeric value unless the field is
    // pattern. Values are ignored; the builder symmetrizes anyway.
    const std::size_t width = f[3] == "pattern" ? 2 : 3;

    // The size line is exactly "rows cols nnz".
    if (!nextDataLine(in, line, f) || f.size() != 3)
        throw GraphError("bad MatrixMarket size line: " + line);
    const std::uint64_t rows = parseUnsigned(f[0], kMaxVertices).value_or(0);
    const auto cols = parseUnsigned<std::uint64_t>(f[1]);
    const auto nnz = parseUnsigned<std::uint64_t>(f[2]);
    if (rows == 0 || !cols || !nnz)
        throw GraphError("bad MatrixMarket size line: " + line);
    if (rows != *cols)
        throw GraphError("adjacency matrix must be square, got " + line);

    GraphBuilder builder(static_cast<VertexId>(rows));
    for (std::uint64_t seen = 0; seen < *nnz; ++seen) {
        if (!nextDataLine(in, line, f))
            throw GraphError("MatrixMarket stream truncated: expected " +
                             std::to_string(*nnz) + " entries, got " +
                             std::to_string(seen));
        const bool ok = f.size() == width && (width == 2 || isNumber(f[2]));
        const std::uint64_t r = ok ? parseUnsigned(f[0], rows).value_or(0) : 0;
        const std::uint64_t c = ok ? parseUnsigned(f[1], rows).value_or(0) : 0;
        if (r == 0 || c == 0)
            throw GraphError("bad MatrixMarket entry: " + line);
        builder.addEdge(static_cast<VertexId>(r - 1),
                        static_cast<VertexId>(c - 1));
    }
    if (nextDataLine(in, line, f))
        throw GraphError("MatrixMarket stream has more than " +
                         std::to_string(*nnz) + " entries: " + line);
    return builder.build(with_weights);
}

CsrGraph
readMatrixMarketFile(const std::string& path, bool with_weights)
{
    std::ifstream in(path);
    if (!in)
        throw GraphError("cannot open MatrixMarket file: " + path);
    return readMatrixMarket(in, with_weights);
}

void
writeMatrixMarket(std::ostream& out, const CsrGraph& g)
{
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
    out << "% written by GGA-Sim\n";
    // Each undirected pair once (v <= u, lower triangle): v == u keeps a
    // graph's self-loops in the file.
    std::uint64_t pairs = 0;
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        for (VertexId v : g.neighbors(u)) {
            if (v <= u)
                ++pairs;
        }
    }
    out << g.numVertices() << ' ' << g.numVertices() << ' ' << pairs << '\n';
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        for (VertexId v : g.neighbors(u)) {
            if (v <= u)
                out << (u + 1) << ' ' << (v + 1) << '\n';
        }
    }
}

} // namespace gga
