// The global allocation functions, replaced so that allocations can
// tick perfbench::g_allocation_laps (bench.hpp); otherwise they behave
// as the defaults. The array and nothrow forms call these. They live in
// a translation unit of their own so that no caller inlines them.
#include <cstdlib>
#include <new>

#include "bench.hpp"

void* operator new(std::size_t size) {
  if (perfbench::g_allocation_laps != nullptr) {
    perfbench::g_allocation_laps->tick();
  }
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
