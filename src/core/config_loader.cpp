#include "core/config_loader.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "sim/text_input.hpp"

namespace rthv::core {

namespace {

// Unsigned keys: a negative or too-large value is an error, never a
// static_cast wrap-around into a huge line count or capacity.
template <typename T>
T parse_unsigned(std::size_t line, std::string_view value) {
  if (const auto v = sim::parse_int<T>(value)) return *v;
  throw ConfigError(line, "expected an integer in [0, " +
                              std::to_string(std::numeric_limits<T>::max()) + "], got '" +
                              std::string(value) + "'");
}

sim::Duration parse_us(std::size_t line, std::string_view value) {
  const auto unit = sim::Duration::us(1);
  if (const auto d = sim::parse_duration(value, unit)) return *d;
  throw ConfigError(line, "expected microseconds in [0, " +
                              std::to_string(sim::max_count(unit)) + "], got '" +
                              std::string(value) + "'");
}

// Color masks read naturally in hex: `0x`-prefixed hex, else decimal.
std::uint32_t parse_mask(std::size_t line, std::string_view value) {
  const bool hex = value.starts_with("0x") || value.starts_with("0X");
  if (const auto v = sim::parse_int<std::uint32_t>(value.substr(hex ? 2 : 0), 0,
                                                   0xFFFF'FFFFu, hex ? 16 : 10)) {
    return *v;
  }
  throw ConfigError(line, "expected a 32-bit mask, got '" + std::string(value) + "'");
}

bool parse_bool(std::size_t line, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw ConfigError(line, "expected a boolean, got '" + value + "'");
}

MonitorKind parse_monitor(std::size_t line, const std::string& value) {
  if (value == "none") return MonitorKind::kNone;
  if (value == "delta_min") return MonitorKind::kDeltaMin;
  if (value == "delta_vector") return MonitorKind::kDeltaVector;
  if (value == "learning") return MonitorKind::kLearning;
  if (value == "token_bucket") return MonitorKind::kTokenBucket;
  if (value == "window_count") return MonitorKind::kWindowCount;
  throw ConfigError(line, "unknown monitor kind '" + value + "'");
}

mon::DeltaVector parse_delta_vector(std::size_t line, const std::string& value) {
  // Space-separated microsecond values.
  mon::DeltaVector out;
  std::istringstream ss(value);
  std::string token;
  while (ss >> token) {
    out.push_back(parse_us(line, token));
  }
  if (out.empty()) throw ConfigError(line, "empty delta vector");
  return out;
}

}  // namespace

SystemConfig load_config(std::istream& is) {
  SystemConfig cfg;
  cfg.partitions.clear();
  cfg.sources.clear();

  enum class Section {
    kNone, kPlatform, kOverheads, kMode, kPartition, kSource, kSlot,
    kInterconnect, kCore,
  };
  Section section = Section::kNone;
  sim::IniReader<ConfigError> ini(is);
  // Line of each partition's `name` key. A partition's name keys its
  // irq_queue/dropped/<partition> counter, so names must be unique.
  std::vector<std::size_t> partition_name_lines;
  // Lines of each [core] section and of each partition's `color_mask` key
  // (0 = none), checked against `cores` and `colors` once both are known.
  std::vector<std::size_t> core_section_lines;
  std::vector<std::size_t> color_mask_lines;

  auto current_partition = [&]() -> PartitionSpec& {
    if (cfg.partitions.empty()) throw ConfigError(ini.line(), "no [partition] open");
    return cfg.partitions.back();
  };
  auto current_source = [&]() -> IrqSourceSpec& {
    if (cfg.sources.empty()) throw ConfigError(ini.line(), "no [source] open");
    return cfg.sources.back();
  };
  auto current_slot = [&]() -> ScheduleSlot& {
    if (cfg.schedule.empty()) throw ConfigError(ini.line(), "no [slot] open");
    return cfg.schedule.back();
  };

  while (ini.next()) {
    const std::size_t line_no = ini.line();
    if (ini.is_section()) {
      const std::string_view name = ini.section();
      if (name == "platform") {
        section = Section::kPlatform;
      } else if (name == "overheads") {
        section = Section::kOverheads;
      } else if (name == "mode") {
        section = Section::kMode;
      } else if (name == "partition") {
        section = Section::kPartition;
        cfg.partitions.push_back(PartitionSpec{"", sim::Duration::zero(), true});
      } else if (name == "source") {
        section = Section::kSource;
        cfg.sources.push_back(IrqSourceSpec{});
      } else if (name == "slot") {
        section = Section::kSlot;
        cfg.schedule.push_back(ScheduleSlot{0, sim::Duration::zero()});
      } else if (name == "interconnect") {
        section = Section::kInterconnect;
      } else if (name == "core") {
        // One [core] section per core, in core-id order: regulation budget.
        section = Section::kCore;
        cfg.interconnect.budgets.push_back(hw::CoreBandwidthBudget{});
        core_section_lines.push_back(line_no);
      } else {
        throw ConfigError(line_no, "unknown section [" + std::string(name) + "]");
      }
      continue;
    }

    const std::string key(ini.key());
    const std::string value(ini.value());
    switch (section) {
      case Section::kNone:
        throw ConfigError(line_no, "key outside any section");
      case Section::kPlatform:
        if (key == "cpu_freq_hz") {
          cfg.platform.cpu_freq_hz = parse_unsigned<std::uint64_t>(line_no, value);
          if (cfg.platform.cpu_freq_hz == 0) {
            throw ConfigError(line_no, "cpu_freq_hz must be positive");
          }
        } else if (key == "cpi_milli") {
          cfg.platform.cpi_milli = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "ctx_invalidate_instructions") {
          cfg.platform.ctx_invalidate_instructions =
              parse_unsigned<std::uint64_t>(line_no, value);
        } else if (key == "ctx_writeback_cycles") {
          cfg.platform.ctx_writeback_cycles =
              parse_unsigned<std::uint64_t>(line_no, value);
        } else if (key == "num_irq_lines") {
          cfg.platform.num_irq_lines = parse_unsigned<std::uint32_t>(line_no, value);
        } else {
          throw ConfigError(line_no, "unknown platform key '" + key + "'");
        }
        break;
      case Section::kOverheads:
        if (key == "monitor_instructions") {
          cfg.overheads.monitor_instructions =
              parse_unsigned<std::uint64_t>(line_no, value);
        } else if (key == "sched_manipulation_instructions") {
          cfg.overheads.sched_manipulation_instructions =
              parse_unsigned<std::uint64_t>(line_no, value);
        } else if (key == "tdma_tick_instructions") {
          cfg.overheads.tdma_tick_instructions =
              parse_unsigned<std::uint64_t>(line_no, value);
        } else {
          throw ConfigError(line_no, "unknown overheads key '" + key + "'");
        }
        break;
      case Section::kMode:
        if (key == "interposing") {
          cfg.mode = parse_bool(line_no, value) ? hv::TopHandlerMode::kInterposing
                                                : hv::TopHandlerMode::kOriginal;
        } else if (key == "background_quantum_us") {
          cfg.background_quantum = parse_us(line_no, value);
        } else if (key == "irq_queue_capacity") {
          cfg.irq_queue_capacity = parse_unsigned<std::size_t>(line_no, value);
        } else {
          throw ConfigError(line_no, "unknown mode key '" + key + "'");
        }
        break;
      case Section::kInterconnect:
        if (key == "cores") {
          cfg.interconnect.num_cores = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "colors") {
          cfg.interconnect.num_colors = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "epoch_us") {
          cfg.interconnect.epoch = parse_us(line_no, value);
        } else if (key == "base_access_ns") {
          cfg.interconnect.base_access_ns = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "conflict_access_ns") {
          cfg.interconnect.conflict_access_ns =
              parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "half_load_accesses") {
          cfg.interconnect.half_load_accesses =
              parse_unsigned<std::uint64_t>(line_no, value);
        } else if (key == "route_latency_us") {
          cfg.interconnect.route_latency = parse_us(line_no, value);
        } else if (key == "route_accesses") {
          cfg.interconnect.route_accesses = parse_unsigned<std::uint64_t>(line_no, value);
        } else {
          throw ConfigError(line_no, "unknown interconnect key '" + key + "'");
        }
        break;
      case Section::kCore:
        if (cfg.interconnect.budgets.empty()) {
          throw ConfigError(line_no, "no [core] open");
        }
        if (key == "budget_accesses") {
          cfg.interconnect.budgets.back().budget_accesses =
              parse_unsigned<std::uint64_t>(line_no, value);
        } else if (key == "replenish_us") {
          cfg.interconnect.budgets.back().replenish_period = parse_us(line_no, value);
        } else {
          throw ConfigError(line_no, "unknown core key '" + key + "'");
        }
        break;
      case Section::kPartition:
        if (key == "name") {
          auto& current = current_partition();
          partition_name_lines.resize(cfg.partitions.size());
          for (std::size_t i = 0; i + 1 < cfg.partitions.size(); ++i) {
            if (partition_name_lines[i] != 0 && cfg.partitions[i].name == value) {
              throw ConfigError(line_no, "duplicate partition name '" + value +
                                             "' (first named on line " +
                                             std::to_string(partition_name_lines[i]) + ")");
            }
          }
          current.name = value;
          partition_name_lines.back() = line_no;
        } else if (key == "slot_us") {
          current_partition().slot_length = parse_us(line_no, value);
        } else if (key == "background_load") {
          current_partition().background_load = parse_bool(line_no, value);
        } else if (key == "core") {
          current_partition().core = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "color_mask") {
          current_partition().color_mask = parse_mask(line_no, value);
          color_mask_lines.resize(cfg.partitions.size());
          color_mask_lines.back() = line_no;
        } else if (key == "mem_accesses_per_us") {
          current_partition().mem_accesses_per_us =
              parse_unsigned<std::uint64_t>(line_no, value);
        } else {
          throw ConfigError(line_no, "unknown partition key '" + key + "'");
        }
        break;
      case Section::kSource:
        if (key == "name") {
          current_source().name = value;
        } else if (key == "subscriber") {
          current_source().subscriber = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "c_top_us") {
          current_source().c_top = parse_us(line_no, value);
        } else if (key == "c_bottom_us") {
          current_source().c_bottom = parse_us(line_no, value);
        } else if (key == "monitor") {
          current_source().monitor = parse_monitor(line_no, value);
        } else if (key == "d_min_us") {
          current_source().d_min = parse_us(line_no, value);
        } else if (key == "delta_vector_us") {
          current_source().delta_vector = parse_delta_vector(line_no, value);
        } else if (key == "learning_depth") {
          current_source().learning_depth = parse_unsigned<std::size_t>(line_no, value);
        } else if (key == "learning_events") {
          current_source().learning_events =
              parse_unsigned<std::uint64_t>(line_no, value);
        } else if (key == "bucket_depth") {
          current_source().bucket_depth = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "window_events") {
          current_source().window_events = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "core") {
          current_source().core = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "bh_accesses") {
          current_source().bh_accesses = parse_unsigned<std::uint64_t>(line_no, value);
        } else {
          throw ConfigError(line_no, "unknown source key '" + key + "'");
        }
        break;
      case Section::kSlot:
        if (key == "partition") {
          current_slot().partition = parse_unsigned<std::uint32_t>(line_no, value);
        } else if (key == "length_us") {
          current_slot().length = parse_us(line_no, value);
        } else {
          throw ConfigError(line_no, "unknown slot key '" + key + "'");
        }
        break;
    }
  }

  // Semantic validation (beyond what HypervisorSystem checks itself).
  if (cfg.partitions.empty()) {
    throw std::invalid_argument("config defines no partitions");
  }
  for (std::size_t i = 0; i < cfg.partitions.size(); ++i) {
    if (cfg.partitions[i].name.empty()) {
      throw std::invalid_argument("partition " + std::to_string(i) + " has no name");
    }
    if (cfg.schedule.empty() && !cfg.partitions[i].slot_length.is_positive()) {
      throw std::invalid_argument("partition '" + cfg.partitions[i].name +
                                  "' has no slot_us and no [slot] entries exist");
    }
  }
  for (const auto& s : cfg.schedule) {
    if (!s.length.is_positive()) {
      throw std::invalid_argument("[slot] entry without a positive length_us");
    }
  }
  if (cfg.num_cores() == 0) {
    throw std::invalid_argument("[interconnect] cores must be >= 1");
  }
  if (cfg.interconnect.budgets.size() > cfg.num_cores()) {
    throw ConfigError(core_section_lines[cfg.num_cores()],
                      "[core] section for core " + std::to_string(cfg.num_cores()) +
                          " of " + std::to_string(cfg.num_cores()));
  }
  // A mask with no bit below `colors` would silently widen to every color.
  // (`colors` outside [1, 32] is the interconnect's to reject.)
  const std::uint32_t colors = cfg.interconnect.num_colors;
  if (colors >= 1 && colors <= 32) {
    const std::uint32_t configured =
        colors == 32 ? 0xFFFF'FFFFu : (std::uint32_t{1} << colors) - 1u;
    for (std::size_t i = 0; i < color_mask_lines.size(); ++i) {
      const std::uint32_t mask = cfg.partitions[i].color_mask;
      if (color_mask_lines[i] != 0 && mask != 0 && (mask & configured) == 0) {
        throw ConfigError(color_mask_lines[i],
                          "color_mask selects none of the " + std::to_string(colors) +
                              " colors");
      }
    }
  }
  for (const auto& p : cfg.partitions) {
    if (p.core >= cfg.num_cores()) {
      throw std::invalid_argument("partition '" + p.name + "' assigned to core " +
                                  std::to_string(p.core) + " of " +
                                  std::to_string(cfg.num_cores()));
    }
  }
  for (const auto& s : cfg.sources) {
    if (s.core >= cfg.num_cores()) {
      throw std::invalid_argument("source '" + s.name + "' originates on core " +
                                  std::to_string(s.core) + " of " +
                                  std::to_string(cfg.num_cores()));
    }
  }
  return cfg;
}

SystemConfig load_config_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open config file: " + path);
  return load_config(is);
}

void save_config(std::ostream& os, const SystemConfig& cfg) {
  os << "[platform]\n"
     << "cpu_freq_hz = " << cfg.platform.cpu_freq_hz << "\n"
     << "cpi_milli = " << cfg.platform.cpi_milli << "\n"
     << "ctx_invalidate_instructions = " << cfg.platform.ctx_invalidate_instructions << "\n"
     << "ctx_writeback_cycles = " << cfg.platform.ctx_writeback_cycles << "\n"
     << "num_irq_lines = " << cfg.platform.num_irq_lines << "\n\n";
  os << "[overheads]\n"
     << "monitor_instructions = " << cfg.overheads.monitor_instructions << "\n"
     << "sched_manipulation_instructions = "
     << cfg.overheads.sched_manipulation_instructions << "\n"
     << "tdma_tick_instructions = " << cfg.overheads.tdma_tick_instructions << "\n\n";
  os << "[mode]\n"
     << "interposing = "
     << (cfg.mode == hv::TopHandlerMode::kInterposing ? "true" : "false") << "\n"
     << "background_quantum_us = " << cfg.background_quantum.count_ns() / 1000 << "\n"
     << "irq_queue_capacity = " << cfg.irq_queue_capacity << "\n";
  // Multi-core sections are emitted only when in use, so single-core
  // configs round-trip byte-identically with older versions. A written
  // color_mask needs its `colors` to load again.
  const bool colored = std::any_of(cfg.partitions.begin(), cfg.partitions.end(),
                                   [](const PartitionSpec& p) {
                                     return p.color_mask != 0xFFFF'FFFFu;
                                   });
  if (cfg.num_cores() > 1 || !cfg.interconnect.budgets.empty() || colored) {
    const hw::InterconnectConfig& ic = cfg.interconnect;
    os << "\n[interconnect]\n"
       << "cores = " << ic.num_cores << "\n"
       << "colors = " << ic.num_colors << "\n"
       << "epoch_us = " << ic.epoch.count_ns() / 1000 << "\n"
       << "base_access_ns = " << ic.base_access_ns << "\n"
       << "conflict_access_ns = " << ic.conflict_access_ns << "\n"
       << "half_load_accesses = " << ic.half_load_accesses << "\n"
       << "route_latency_us = " << ic.route_latency.count_ns() / 1000 << "\n"
       << "route_accesses = " << ic.route_accesses << "\n";
    for (const auto& b : ic.budgets) {
      os << "\n[core]\n"
         << "budget_accesses = " << b.budget_accesses << "\n"
         << "replenish_us = " << b.replenish_period.count_ns() / 1000 << "\n";
    }
  }
  for (const auto& p : cfg.partitions) {
    os << "\n[partition]\n"
       << "name = " << p.name << "\n"
       << "slot_us = " << p.slot_length.count_ns() / 1000 << "\n"
       << "background_load = " << (p.background_load ? "true" : "false") << "\n";
    if (p.core != 0) os << "core = " << p.core << "\n";
    if (p.color_mask != 0xFFFF'FFFFu) {
      os << "color_mask = 0x" << std::hex << p.color_mask << std::dec << "\n";
    }
    if (p.mem_accesses_per_us != 0) {
      os << "mem_accesses_per_us = " << p.mem_accesses_per_us << "\n";
    }
  }
  for (const auto& s : cfg.sources) {
    os << "\n[source]\n";
    // A source may be unnamed; "name = " with no value would not reload.
    if (!s.name.empty()) os << "name = " << s.name << "\n";
    os << "subscriber = " << s.subscriber << "\n"
       << "c_top_us = " << s.c_top.count_ns() / 1000 << "\n"
       << "c_bottom_us = " << s.c_bottom.count_ns() / 1000 << "\n";
    switch (s.monitor) {
      case MonitorKind::kNone:
        os << "monitor = none\n";
        break;
      case MonitorKind::kDeltaMin:
        os << "monitor = delta_min\n"
           << "d_min_us = " << s.d_min.count_ns() / 1000 << "\n";
        break;
      case MonitorKind::kDeltaVector: {
        os << "monitor = delta_vector\n"
           << "delta_vector_us =";
        for (const auto d : s.delta_vector) os << " " << d.count_ns() / 1000;
        os << "\n";
        break;
      }
      case MonitorKind::kLearning: {
        os << "monitor = learning\n"
           << "learning_depth = " << s.learning_depth << "\n"
           << "learning_events = " << s.learning_events << "\n";
        if (!s.delta_vector.empty()) {
          os << "delta_vector_us =";
          for (const auto d : s.delta_vector) os << " " << d.count_ns() / 1000;
          os << "\n";
        }
        break;
      }
      case MonitorKind::kTokenBucket:
        os << "monitor = token_bucket\n"
           << "d_min_us = " << s.d_min.count_ns() / 1000 << "\n"
           << "bucket_depth = " << s.bucket_depth << "\n";
        break;
      case MonitorKind::kWindowCount:
        os << "monitor = window_count\n"
           << "d_min_us = " << s.d_min.count_ns() / 1000 << "\n"
           << "window_events = " << s.window_events << "\n";
        break;
    }
    if (s.core != 0) os << "core = " << s.core << "\n";
    if (s.bh_accesses != 0) os << "bh_accesses = " << s.bh_accesses << "\n";
  }
  for (const auto& s : cfg.schedule) {
    os << "\n[slot]\n"
       << "partition = " << s.partition << "\n"
       << "length_us = " << s.length.count_ns() / 1000 << "\n";
  }
}

}  // namespace rthv::core
