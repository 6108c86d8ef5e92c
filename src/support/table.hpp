/**
 * @file
 * Aligned text-table and CSV emission for the table/figure harnesses.
 */

#ifndef GGA_SUPPORT_TABLE_HPP
#define GGA_SUPPORT_TABLE_HPP

#include <string>
#include <vector>

namespace gga {

/**
 * A simple row/column table that renders either as aligned monospace text
 * (for terminals) or CSV (for plotting scripts).
 */
class TextTable
{
  public:
    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Append one data row; it may be shorter than the header. */
    void addRow(std::vector<std::string> row);

    /** Append a visual separator row (rendered as dashes in text mode). */
    void addSeparator();

    /** Render as aligned text with two-space gutters. */
    std::string toText() const;

    /** Render as RFC-4180-ish CSV (fields with commas/quotes are quoted). */
    std::string toCsv() const;

  private:
    struct Row
    {
        std::vector<std::string> cells;
        bool separator = false;
    };

    std::vector<std::string> header_;
    std::vector<Row> rows_;
};

/** Format a double with fixed precision. */
std::string fmtDouble(double v, int precision);

/** Format a percentage (0.37 -> "37.0%"). */
std::string fmtPct(double fraction, int precision = 1);

} // namespace gga

#endif // GGA_SUPPORT_TABLE_HPP
