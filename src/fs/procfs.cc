#include "src/fs/procfs.h"

#include <cstdio>
#include <sstream>

namespace vos {

std::string FormatCpuInfo(const std::vector<ProcCpuLine>& cores, std::uint64_t uptime_ms) {
  std::ostringstream os;
  os << "uptime_ms: " << uptime_ms << "\n";
  for (const ProcCpuLine& c : cores) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "cpu%u: util %.1f%% switches %llu\n", c.core,
                  c.utilization * 100.0, static_cast<unsigned long long>(c.switches));
    os << buf;
  }
  return os.str();
}

std::string FormatMemInfo(std::uint64_t total_pages, std::uint64_t free_pages,
                          std::uint64_t kernel_reserved_bytes) {
  std::ostringstream os;
  os << "MemTotal: " << total_pages * 4 << " kB\n";
  os << "MemFree: " << free_pages * 4 << " kB\n";
  os << "KernelReserved: " << kernel_reserved_bytes / 1024 << " kB\n";
  return os.str();
}

std::string FormatUptime(std::uint64_t uptime_ms) {
  std::ostringstream os;
  os << uptime_ms / 1000 << "." << (uptime_ms % 1000) / 100 << "\n";
  return os.str();
}

std::string FormatTasks(const std::vector<ProcTaskLine>& tasks) {
  std::ostringstream os;
  os << "PID\tSTATE\tCPU_MS\tNAME\n";
  for (const ProcTaskLine& t : tasks) {
    os << t.pid << "\t" << t.state << "\t" << t.cpu_ms << "\t" << t.name << "\n";
  }
  return os.str();
}

bool ParseCpuUtilization(const std::string& cpuinfo, std::vector<double>* out) {
  out->clear();
  std::istringstream is(cpuinfo);
  std::string line;
  while (std::getline(is, line)) {
    unsigned core;
    double util;
    if (std::sscanf(line.c_str(), "cpu%u: util %lf%%", &core, &util) == 2) {
      out->push_back(util / 100.0);
    }
  }
  return !out->empty();
}

bool ParseMemFree(const std::string& meminfo, std::uint64_t* total_kb, std::uint64_t* free_kb) {
  std::istringstream is(meminfo);
  std::string line;
  bool got_total = false, got_free = false;
  while (std::getline(is, line)) {
    unsigned long long v;
    if (std::sscanf(line.c_str(), "MemTotal: %llu kB", &v) == 1) {
      *total_kb = v;
      got_total = true;
    } else if (std::sscanf(line.c_str(), "MemFree: %llu kB", &v) == 1) {
      *free_kb = v;
      got_free = true;
    }
  }
  return got_total && got_free;
}

std::string FormatSchedStat(const std::vector<ProcSchedLine>& cores,
                            const std::vector<ProcTaskLine>& tasks) {
  std::ostringstream os;
  for (const ProcSchedLine& c : cores) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "core %u switches %llu runq %llu steals %llu migr %llu idle %.1f%%\n", c.core,
                  static_cast<unsigned long long>(c.switches),
                  static_cast<unsigned long long>(c.runq),
                  static_cast<unsigned long long>(c.steals),
                  static_cast<unsigned long long>(c.migrations), c.idle_pct);
    os << buf;
  }
  for (const ProcTaskLine& t : tasks) {
    os << "pid " << t.pid << " cpu_ms " << t.cpu_ms << " utime_ms " << t.utime_ms
       << " stime_ms " << t.stime_ms << " sys " << t.syscalls << " blocked_ms " << t.blocked_ms
       << " level " << t.level << " name " << t.name << "\n";
  }
  return os.str();
}

bool ParseSchedTasks(const std::string& schedstat, std::vector<ProcTaskLine>* out) {
  out->clear();
  std::istringstream is(schedstat);
  std::string line;
  while (std::getline(is, line)) {
    ProcTaskLine t;
    unsigned long long cpu, ut, st, sys, bl;
    char name[64];
    if (std::sscanf(line.c_str(),
                    "pid %d cpu_ms %llu utime_ms %llu stime_ms %llu sys %llu blocked_ms %llu "
                    "level %d name %63s",
                    &t.pid, &cpu, &ut, &st, &sys, &bl, &t.level, name) == 8) {
      t.cpu_ms = cpu;
      t.utime_ms = ut;
      t.stime_ms = st;
      t.syscalls = sys;
      t.blocked_ms = bl;
      t.name = name;
      out->push_back(t);
    }
  }
  return !out->empty();
}

bool ParseSchedStat(const std::string& schedstat, std::vector<ProcSchedLine>* out) {
  out->clear();
  std::istringstream is(schedstat);
  std::string line;
  while (std::getline(is, line)) {
    ProcSchedLine c;
    unsigned long long sw, rq, st, mg;
    if (std::sscanf(line.c_str(), "core %u switches %llu runq %llu steals %llu migr %llu idle %lf%%",
                    &c.core, &sw, &rq, &st, &mg, &c.idle_pct) == 6) {
      c.switches = sw;
      c.runq = rq;
      c.steals = st;
      c.migrations = mg;
      out->push_back(c);
    }
  }
  return !out->empty();
}

bool ParseMetricValue(const std::string& metrics, const std::string& name, std::uint64_t* out) {
  std::istringstream is(metrics);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      unsigned long long v;
      if (std::sscanf(line.c_str() + name.size() + 1, "%llu", &v) == 1) {
        *out = v;
        return true;
      }
    }
  }
  return false;
}

}  // namespace vos
