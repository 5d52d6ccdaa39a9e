#include "core/table.hh"

#include <iomanip>
#include <sstream>

#include "base/logging.hh"

namespace mbias::core
{

std::string
fmt(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
fmtInterval(double lower, double upper)
{
    std::string s = "[";
    s += fmt(lower);
    s += ", ";
    s += fmt(upper);
    s += ']';
    return s;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    mbias_assert(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    mbias_assert(cells.size() == headers_.size(),
                 "row width does not match header");
    rows_.push_back(std::move(cells));
}

void
TextTable::addRow(const std::string &label,
                  const std::vector<double> &values, int precision)
{
    std::vector<std::string> cells;
    cells.push_back(label);
    for (double v : values)
        cells.push_back(fmt(v, precision));
    addRow(std::move(cells));
}

std::string
TextTable::str() const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(int(width[c]) + 2) << row[c];
        }
        os << "\n";
    };
    emit(headers_);
    std::vector<std::string> rule;
    for (std::size_t c = 0; c < headers_.size(); ++c)
        rule.push_back(std::string(width[c], '-'));
    emit(rule);
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

} // namespace mbias::core
