/**
 * @file
 * Small string-keyed map as a sorted vector.
 *
 * Mirrors the slice of the std::map API sema's scopes use (operator[],
 * find, count). Keys are string_views into storage the caller
 * guarantees outlives the map — sema points them at AST strings. Sema
 * resolves every name of a component through one such map, and a scope
 * holds tens of entries, so one flat binary-searched vector beats an
 * rbtree node allocation per name.
 */
#ifndef POLYMATH_CORE_FLAT_MAP_H_
#define POLYMATH_CORE_FLAT_MAP_H_

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

namespace polymath {

template <class T>
struct FlatStringMap
{
    std::vector<std::pair<std::string_view, T>> items;

    auto lookup(std::string_view k)
    {
        return std::lower_bound(items.begin(), items.end(), k,
                                [](const auto &a, std::string_view b) {
                                    return a.first < b;
                                });
    }
    auto lookup(std::string_view k) const
    {
        return std::lower_bound(items.begin(), items.end(), k,
                                [](const auto &a, std::string_view b) {
                                    return a.first < b;
                                });
    }

    T &operator[](std::string_view k)
    {
        auto it = lookup(k);
        if (it == items.end() || it->first != k)
            it = items.insert(it, {k, T{}});
        return it->second;
    }
    size_t count(std::string_view k) const
    {
        const auto it = lookup(k);
        return it != items.end() && it->first == k ? 1 : 0;
    }
    auto find(std::string_view k) const
    {
        auto it = lookup(k);
        return it != items.end() && it->first == k ? it : items.end();
    }
    auto end() const { return items.end(); }
};

} // namespace polymath

#endif // POLYMATH_CORE_FLAT_MAP_H_
