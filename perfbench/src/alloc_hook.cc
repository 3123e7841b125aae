#include "src/alloc_hook.h"

#include <cstdlib>
#include <new>  // buslint: allow(raw-new-delete) -- header name, not an allocation site

namespace {
uint64_t g_allocs = 0;
}  // namespace

namespace perfbench {
uint64_t AllocCount() { return g_allocs; }
}  // namespace perfbench

// The replaceable global allocation functions below are the counting hook; the
// new/delete tokens are the functions' names, not allocation sites. GCC pairs free()
// against the replaced operator new[] where it inlines, although both forms go
// through malloc/free; silence that false positive for these definitions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {  // buslint: allow(raw-new-delete) -- counting-hook definition
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }  // buslint: allow(raw-new-delete) -- array form of the counting hook

void operator delete(void* p) noexcept { std::free(p); }    // buslint: allow(raw-new-delete) -- counting-hook pair
void operator delete[](void* p) noexcept { std::free(p); }  // buslint: allow(raw-new-delete) -- counting-hook pair
void operator delete(void* p, std::size_t) noexcept { std::free(p); }    // buslint: allow(raw-new-delete) -- sized form
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }  // buslint: allow(raw-new-delete) -- sized form
