/// \file tracer.hpp
/// \brief In-memory spans recorded around calls into the program's
/// public functions, written out once the run ends.
///
/// Every span carries the id of the operation it belongs to and the
/// index of its parent span (-1 at the top of an operation). Nothing is
/// recorded inside the program: a span covers exactly one public call,
/// or the remainder of a phase that has no public entry point.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cecbench {

struct SpanRecord {
  std::string name;
  std::uint32_t op = 0;
  std::int32_t parent = -1;
  double start_s = 0.0;  ///< Seconds since the tracer was created.
  double end_s = 0.0;
  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes the scope a no-op, so untraced code paths share it.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Operation id stamped on spans opened from now on.
  void begin_op(std::uint32_t op) { op_ = op; }

  /// Summed duration of the spans named \p name.
  [[nodiscard]] double total(std::string_view name) const;

  /// Writes every span as one JSON array; false if the file is unwritable.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< Stack of open span indices.
  std::uint32_t op_ = 0;
};

}  // namespace cecbench
