// Compatibility stub. The planner keeps no tile-search memo (every tile
// search enumerates its quads afresh), so there is nothing to clear. The
// benchmark program (perfbench/) still calls clear() before each cold
// set-up; ROADMAP.md item 1, which moves perfbench/ off removed surfaces,
// drops those calls and then deletes this header.
#pragma once

namespace jigsaw::core {

class TileSearchCache {
 public:
  static TileSearchCache& instance() {
    static TileSearchCache cache;
    return cache;
  }
  void clear() {}
};

}  // namespace jigsaw::core
