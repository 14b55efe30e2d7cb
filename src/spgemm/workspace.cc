#include "spgemm/workspace.hpp"

namespace hh {

void SpaWorkspace::begin_product(index_t cols) {
  const auto n = static_cast<std::size_t>(cols);
  if (acc.size() < n) acc.resize(n, value_t{0});
  if (touched.size() < (n + 63) / 64) touched.resize((n + 63) / 64, 0);
  cols_touched.clear();
}

std::unique_ptr<SpaWorkspace> WorkspacePool::acquire_spa() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.spa_acquires;
  ++stats_.spa_live;
  if (!free_spa_.empty()) {
    ++stats_.spa_reuses;
    auto ws = std::move(free_spa_.back());
    free_spa_.pop_back();
    return ws;
  }
  return std::make_unique<SpaWorkspace>();
}

void WorkspacePool::release_spa(std::unique_ptr<SpaWorkspace> ws) {
  if (ws == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.spa_live;
  free_spa_.push_back(std::move(ws));
}

RowRunBuffer WorkspacePool::acquire_runs(index_t rows, index_t cols) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.coo_acquires;
  ++stats_.coo_live;
  if (free_runs_.empty()) return RowRunBuffer(rows, cols);
  ++stats_.coo_reuses;
  RowRunBuffer buf = std::move(free_runs_.back());
  free_runs_.pop_back();
  buf.rows = rows;
  buf.cols = cols;
  buf.clear();
  return buf;
}

void WorkspacePool::release_runs(RowRunBuffer&& buf) {
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.coo_live;
  free_runs_.push_back(std::move(buf));
}

WorkspacePool::Stats WorkspacePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

RowRunBuffer acquire_runs(WorkspacePool* pool, index_t rows, index_t cols) {
  return pool != nullptr ? pool->acquire_runs(rows, cols)
                         : RowRunBuffer(rows, cols);
}

void release_runs(WorkspacePool* pool, RowRunBuffer&& buf) {
  if (pool != nullptr) pool->release_runs(std::move(buf));
}

}  // namespace hh
