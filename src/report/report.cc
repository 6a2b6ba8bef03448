#include "report/report.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/strings.h"

namespace polymath::report {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("table row width mismatch");
    rows_.push_back(std::move(cells));
}

std::string
Table::str() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    // Every line but the last cell is padded to its column width plus a
    // two-space gutter.
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    std::string out;
    out.reserve((total + 1) * (rows_.size() + 2));
    auto render_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            out += row[c];
            if (c + 1 < row.size())
                out.append(widths[c] - row[c].size() + 2, ' ');
        }
        out += '\n';
    };
    render_row(headers_);
    out.append(total, '-');
    out += '\n';
    for (const auto &row : rows_)
        render_row(row);
    return out;
}

double
geomean(std::span<const double> values)
{
    // Zero/negative entries have no logarithm and non-finite entries
    // (e.g. the +inf a zero-cost candidate produces in speedup()) would
    // absorb every other sample, so both are skipped; an input with no
    // usable entries — including an empty one — yields 0.0, which no
    // real geomean can produce and therefore reads as "no data".
    double log_sum = 0.0;
    int64_t n = 0;
    for (double v : values) {
        if (v <= 0 || !std::isfinite(v))
            continue;
        log_sum += std::log(v);
        ++n;
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

double
mean(std::span<const double> values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0
                          : sum / static_cast<double>(values.size());
}

std::string
times(double value)
{
    // formatF, not printf %f: bench tables must render identically under
    // every locale (no decimal-comma output under e.g. de_DE).
    return formatF(value, 1) + "x";
}

std::string
percent(double value)
{
    return formatF(value * 100.0, 1) + "%";
}

} // namespace polymath::report
