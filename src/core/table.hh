#ifndef MBIAS_CORE_TABLE_HH
#define MBIAS_CORE_TABLE_HH

#include <initializer_list>
#include <string>
#include <vector>

namespace mbias::core
{

/**
 * Minimal fixed-width text table used by the benchmark harness to
 * print the paper's tables and figure series without a plotting
 * dependency.
 */
class TextTable
{
  public:
    /** Creates a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Appends a row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: formats each double with @p precision digits. */
    void addRow(const std::string &label,
                const std::vector<double> &values, int precision = 4);

    /** Renders with aligned columns. */
    std::string str() const;

    /** Number of data rows. */
    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Formats a double with fixed precision. */
std::string fmt(double v, int precision = 4);

/** Formats an interval as "[lower, upper]", each bound as fmt() does. */
std::string fmtInterval(double lower, double upper);

} // namespace mbias::core

#endif // MBIAS_CORE_TABLE_HH
