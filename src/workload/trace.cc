#include "workload/trace.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>

#include "common/check.h"

namespace wcs::workload {

void save_job(const Job& job, std::ostream& out) {
  // mflop must survive a save/load round trip exactly (the trace-replay
  // test re-runs the parsed job and expects identical results), so print
  // doubles at full round-trip precision, not the stream default of 6.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "job " << (job.name().empty() ? "unnamed" : job.name()) << '\n';
  out << "files " << job.catalog.num_files() << '\n';
  for (std::size_t i = 0; i < job.catalog.num_files(); ++i)
    out << "filesize " << i << ' '
        << job.catalog.size(FileId(static_cast<FileId::underlying_type>(i)))
        << '\n';
  for (const Task& t : job.tasks()) {
    out << "task " << t.id.value() << ' ' << t.mflop;
    for (FileId f : t.files) out << ' ' << f.value();
    out << '\n';
  }
}

void save_job(const Job& job, const std::string& path) {
  std::ofstream out(path);
  WCS_CHECK_MSG(out.good(), "cannot open " << path);
  save_job(job, out);
}

void save_workload(const Workload& workload, std::ostream& out) {
  save_job(workload.job, out);
  // A closed workload serializes as a plain job: byte-identical to the
  // legacy format, loadable by old readers.
  if (!workload.open()) return;
  const ArrivalSchedule& s = workload.arrivals;
  for (std::size_t t = 0; t < s.tenants.size(); ++t)
    out << "tenant " << t << ' ' << s.tenants[t].weight << ' '
        << (s.tenants[t].name.empty() ? "unnamed" : s.tenants[t].name)
        << '\n';
  for (const Task& task : workload.job.tasks())
    out << "arrival " << task.id.value() << ' ' << s.tenant(task.id) << ' '
        << s.arrival(task.id) << '\n';
}

void save_workload(const Workload& workload, const std::string& path) {
  std::ofstream out(path);
  WCS_CHECK_MSG(out.good(), "cannot open " << path);
  save_workload(workload, out);
}

namespace {

// Field `i` of a trace line, refused (naming the line) unless it parses
// whole: an unsigned integer without sign, or a finite double.
template <typename T>
T field(const std::vector<std::string>& fields, std::size_t i,
        std::size_t line) {
  const std::string& text = fields[i];
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  bool ok = ec == std::errc() && end == text.data() + text.size();
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  WCS_CHECK_MSG(ok, "trace line " << line << ": " << fields[0] << " field '"
                                  << text << "' does not parse");
  return value;
}

// A filesize, task or arrival directive, staged in input order.
struct Staged {
  std::size_t id = 0, line = 0;
  Bytes size = 0;            // filesize
  double value = 0;          // task: mflop; arrival: time
  std::size_t end = 0;       // task: its files end at pool[end]
  std::uint32_t tenant = 0;  // arrival
};

// Positions of `items` in id order; their ids must be exactly [0, n).
std::vector<std::size_t> dense_order(const std::vector<Staged>& items,
                                     const char* what) {
  std::vector<std::size_t> at(items.size(), SIZE_MAX);
  for (std::size_t k = 0; k < items.size(); ++k) {
    const Staged& s = items[k];
    WCS_CHECK_MSG(s.id < items.size(),
                  "trace line " << s.line << ": " << what << " ids must be "
                      << "dense 0-based, but " << s.id << " >= "
                      << items.size());
    WCS_CHECK_MSG(at[s.id] == SIZE_MAX,
                  "trace line " << s.line << ": " << what << ' ' << s.id
                                << " declared twice (first on line "
                                << items[at[s.id]].line << ')');
    at[s.id] = k;
  }
  return at;
}

}  // namespace

Workload load_workload(std::istream& in) {
  // Directives are staged in input order and checked for density after
  // the whole trace is read, so what the reader allocates is bounded by
  // the input's size, never by an id or count it declares.
  Workload wl;
  std::size_t declared_files = 0;
  std::vector<Staged> sizes, tasks, arrivals;
  std::vector<FileId> pool;  // every task's files, in input order
  std::vector<std::string> f;
  std::string line;
  for (std::size_t n = 1; std::getline(in, line); ++n) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    f.clear();
    for (std::string word; ls >> word;) f.push_back(std::move(word));
    if (f.empty()) continue;
    const std::string& kind = f[0];
    const auto expect = [&](std::size_t fields) {
      WCS_CHECK_MSG(f.size() == fields + 1,
                    "trace line " << n << ": " << kind << " takes " << fields
                                  << " fields, got " << f.size() - 1);
    };
    if (kind == "job") {
      expect(1);
      wl.job.set_name(f[1]);
    } else if (kind == "files") {
      expect(1);
      declared_files = field<std::size_t>(f, 1, n);
    } else if (kind == "filesize") {
      expect(2);
      sizes.push_back({.id = field<std::size_t>(f, 1, n), .line = n,
                       .size = field<Bytes>(f, 2, n)});
      WCS_CHECK_MSG(sizes.back().size > 0,
                    "trace line " << n << ": file of size 0");
    } else if (kind == "task") {
      WCS_CHECK_MSG(f.size() >= 3,
                    "trace line " << n << ": task takes an id and a cost");
      tasks.push_back({.id = field<TaskId::underlying_type>(f, 1, n),
                       .line = n, .value = field<double>(f, 2, n)});
      for (std::size_t i = 3; i < f.size(); ++i)
        pool.push_back(FileId(field<FileId::underlying_type>(f, i, n)));
      tasks.back().end = pool.size();
    } else if (kind == "tenant") {
      expect(3);
      const auto idx = field<std::size_t>(f, 1, n);
      WCS_CHECK_MSG(idx == wl.arrivals.tenants.size(),
                    "trace line " << n << ": tenant ids must be dense "
                                  << "0-based (got " << idx << ")");
      wl.arrivals.tenants.push_back({f[3], field<std::uint32_t>(f, 2, n)});
    } else if (kind == "arrival") {
      expect(3);
      arrivals.push_back({.id = field<TaskId::underlying_type>(f, 1, n),
                          .line = n, .value = field<double>(f, 3, n),
                          .tenant = field<std::uint32_t>(f, 2, n)});
    } else {
      WCS_CHECK_MSG(false, "trace line " << n
                                         << ": unknown trace directive: "
                                         << kind);
    }
  }
  WCS_CHECK_MSG(sizes.size() == declared_files,
                declared_files << " files declared but " << sizes.size()
                               << " filesize lines: file with no declared "
                                  "size, or one too many");
  for (std::size_t k : dense_order(sizes, "filesize"))
    wl.job.catalog.add_file(sizes[k].size);
  wl.job.reserve_tasks(tasks.size(), pool.size());
  for (std::size_t k : dense_order(tasks, "task")) {
    const std::size_t begin = k == 0 ? 0 : tasks[k - 1].end;
    wl.job.add_task(std::span(pool).subspan(begin, tasks[k].end - begin),
                    tasks[k].value);
  }
  validate_job(wl.job);
  if (!arrivals.empty()) {
    WCS_CHECK_MSG(arrivals.size() == tasks.size(),
                  "arrival directives must cover every task");
    for (std::size_t k : dense_order(arrivals, "arrival")) {
      wl.arrivals.arrival_s.push_back(arrivals[k].value);
      wl.arrivals.tenant_of.push_back(arrivals[k].tenant);
    }
  }
  validate_arrivals(wl.arrivals, wl.job);
  return wl;
}

Workload load_workload(const std::string& path) {
  std::ifstream in(path);
  WCS_CHECK_MSG(in.good(), "cannot open " << path);
  return load_workload(in);
}

Job load_job(std::istream& in) {
  Workload wl = load_workload(in);
  WCS_CHECK_MSG(!wl.open(),
                "trace carries open-system metadata; use load_workload");
  return std::move(wl.job);
}

Job load_job(const std::string& path) {
  std::ifstream in(path);
  WCS_CHECK_MSG(in.good(), "cannot open " << path);
  return load_job(in);
}

}  // namespace wcs::workload
