// Scratch-memory arena for kernel workspaces (im2col buffers, attention
// scratch). Allocation is a pointer bump; release rewinds to a mark. The
// arena grows to its high-water mark once and then serves every subsequent
// UNet forward without touching the system allocator.
//
// Lifetime rules (see DESIGN.md "Kernel layer"):
//   * pointers returned by alloc() are valid until the mark taken before
//     the allocation is released (stack discipline, enforced by
//     WorkspaceScope);
//   * the arena is thread-local: kernels allocate on the calling thread
//     only, never inside parallel_for bodies. A kernel that fans out
//     allocates one slot per chunk up front (conv2d_forward: one im2col
//     slot per sample group) and each chunk uses only its own slot;
//   * kernels nested inside a pool job (the GEMM of one sample group) run
//     inline on the worker and allocate nothing, so worker arenas stay
//     empty on the inference path;
//   * capacity is retained across resets; shrink() returns it to the OS.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace pp::nn {

class Workspace {
 public:
  /// Rewind token: identifies a block + offset within it.
  struct Mark {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena (created on first use).
  static Workspace& tls();

  /// Bump-allocates n floats (uninitialized). Never returns null; grows the
  /// arena when needed. Existing allocations stay valid across growth.
  /// Returned pointers are 64-byte aligned: blocks start on a 64-byte
  /// boundary and every bump is rounded up to a 16-float multiple.
  float* alloc(std::size_t n);

  Mark mark() const { return {active_, blocks_.empty() ? 0 : blocks_[active_].used}; }

  /// Rewinds to a previously taken mark; everything allocated after it is
  /// logically freed (memory retained for reuse). When fully rewound and the
  /// arena is fragmented over several blocks, they are coalesced into one
  /// block of the high-water size so steady state is a single allocation.
  void release(const Mark& m);

  void reset() { release(Mark{}); }

  /// Total floats currently reserved across all blocks.
  std::size_t capacity() const;
  /// Largest total in-use size ever observed.
  std::size_t high_water() const { return high_water_; }
  /// Floats currently allocated.
  std::size_t in_use() const;

  /// Drops all memory (arena must be fully released).
  void shrink();

 private:
  struct AlignedFree {
    void operator()(float* p) const;
  };
  struct Block {
    std::unique_ptr<float[], AlignedFree> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::vector<Block> blocks_;
  std::size_t active_ = 0;      ///< block currently allocated from
  std::size_t high_water_ = 0;
};

/// RAII rewind: releases everything allocated on `ws` after construction.
class WorkspaceScope {
 public:
  explicit WorkspaceScope(Workspace& ws) : ws_(ws), mark_(ws.mark()) {}
  ~WorkspaceScope() { ws_.release(mark_); }
  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;

 private:
  Workspace& ws_;
  Workspace::Mark mark_;
};

}  // namespace pp::nn
