#ifndef PIMINE_UTIL_COUNTER_TABLE_H_
#define PIMINE_UTIL_COUNTER_TABLE_H_

// Entry expanders for counter tables. A counter table is an X-macro list of
// X(field, Prometheus family, HELP text) entries (PIMINE_FAULT_COUNTERS,
// PIMINE_FAILOVER_COUNTERS, PIMINE_SERVE_COUNTERS, ...). It is the one
// definition of its counters: applying it to an expander below generates
// the matching code for every entry, so no field can be left out of a
// merge, a print or an export.

/// Declares one uint64_t field per entry.
#define PIMINE_COUNTER_FIELD(field, family, help) uint64_t field = 0;

/// `field += other.field;` — for a Merge(const T& other) body.
#define PIMINE_COUNTER_MERGE(field, family, help) field += other.field;

/// `|| field != 0` — for `return false TABLE(PIMINE_COUNTER_ANY) ...;`.
#define PIMINE_COUNTER_ANY(field, family, help) || field != 0

/// Appends `field=value ` to the std::ostream `os`.
#define PIMINE_COUNTER_PRINT(field, family, help) \
  os << #field "=" << field << " ";

#endif  // PIMINE_UTIL_COUNTER_TABLE_H_
