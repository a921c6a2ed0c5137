// bg3-lint fixture: latch-discipline pass.
//
// Exercises: BG3_BLOCKING seeds, builtin blocking names, transitive
// propagation through the call graph, RAII-guard regions, BG3_REQUIRES
// regions merged from the in-class declaration, and BG3_NO_BLOCKING
// functions that in fact block.

class CloudStore {
 public:
  void PutBlob() BG3_BLOCKING;
  void ReadBlob() BG3_BLOCKING;
  void Touch();  // not blocking
};

// Blocks transitively: no annotation of its own, but its body reaches a
// BG3_BLOCKING callee.
class Wal {
 public:
  void Append() { store_->PutBlob(); }

 private:
  CloudStore* store_;
};

class Cache {
 public:
  void Insert(int v);
  void InsertSlow(int v);
  void Probe() BG3_NO_BLOCKING;

 private:
  Mutex mu_;
  CloudStore* store_;
};

void Cache::Insert(int v) {
  MutexLock lock(&mu_);
  store_->Touch();  // non-blocking callee under the latch: fine
  v = v + 1;
}

void Cache::InsertSlow(int v) {
  MutexLock lock(&mu_);
  store_->PutBlob();  // LINT-EXPECT: latch-discipline under-lock:Cache::mu_->PutBlob
  v = v + 1;
}

void Cache::Probe() {
  store_->PutBlob();  // LINT-EXPECT: latch-discipline no-blocking:PutBlob
}

class Engine {
 public:
  void Commit();

 private:
  Mutex mu_;
  Wal* wal_;
};

void Engine::Commit() {
  MutexLock lock(&mu_);
  wal_->Append();  // LINT-EXPECT: latch-discipline under-lock:Engine::mu_->Append
}

class Backoff {
 public:
  void Nap();
  void NapOutside();

 private:
  Mutex mu_;
};

void Backoff::Nap() {
  MutexLock lock(&mu_);
  std::this_thread::sleep_for(10);  // LINT-EXPECT: latch-discipline under-lock:Backoff::mu_->sleep_for
}

void Backoff::NapOutside() {
  { MutexLock lock(&mu_); }
  std::this_thread::sleep_for(10);  // latch already released: fine
}

// BG3_REQUIRES on the in-class declaration makes the whole out-of-line
// body a held region (decl/def annotation merge).
class Registry {
 public:
  void Publish() BG3_REQUIRES(mu_);

 private:
  Mutex mu_;
  CloudStore* store_;
};

void Registry::Publish() {
  store_->PutBlob();  // LINT-EXPECT: latch-discipline under-lock:Registry::mu_->PutBlob
}

// WAL pipeline classes (DESIGN.md §5.9): plain std::mutex guard regions
// are checked too — blocking cloud I/O under the writer or ledger mutex
// stalls every appender behind one round trip. Condition-variable waits
// naming the guard variable are exempt (the wait releases the lock).
class WalWriter {
 public:
  void FlushInline();
  void WaitDrained();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  CloudStore* store_;
};

void WalWriter::FlushInline() {
  std::lock_guard<std::mutex> lock(mu_);
  store_->PutBlob();  // LINT-EXPECT: latch-discipline under-lock:WalWriter::mu_->PutBlob
}

void WalWriter::WaitDrained() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock);  // releases mu_ while waiting: fine
}

// Outside the pipeline classes, std::mutex guards stay out of scope.
class SideCar {
 public:
  void FlushInline();

 private:
  std::mutex mu_;
  CloudStore* store_;
};

void SideCar::FlushInline() {
  std::lock_guard<std::mutex> lock(mu_);
  store_->PutBlob();  // std::mutex outside the WAL pipeline: not checked
}

// Scan visitors (DESIGN.md §5.4): a lambda passed where the callee takes a
// ScanVisitor runs synchronously under the callee's leaf latch, so blocking
// in its body is blocking under LeafPage::latch — whether the lambda is
// written inline or bound to a local first. Other lambdas stay deferred
// work, checked at their dispatch site.
class LeafTree {
 public:
  void Scan(const ScanOptions& options, ScanVisitor visit);
};

class TaskPool {
 public:
  void Submit(Task task);
};

class AdjacencyReader {
 public:
  void Decode();
  void NapInVisitor();
  void ReadInVisitor();
  void DeferRead();

 private:
  LeafTree* tree_;
  TaskPool* pool_;
  CloudStore* store_;
};

void AdjacencyReader::Decode() {
  tree_->Scan(opts_, [&](const Slice& key, const Slice& value) {
    store_->Touch();  // non-blocking work in a visitor: fine
    return true;
  });
}

void AdjacencyReader::NapInVisitor() {
  tree_->Scan(opts_, [&](const Slice& key, const Slice& value) {
    std::this_thread::sleep_for(10);  // LINT-EXPECT: latch-discipline under-lock:LeafPage::latch->sleep_for
    return true;
  });
}

void AdjacencyReader::ReadInVisitor() {
  auto visit = [&](const Slice& key, const Slice& value) {
    store_->ReadBlob();  // LINT-EXPECT: latch-discipline under-lock:LeafPage::latch->ReadBlob
    return true;
  };
  tree_->Scan(opts_, visit);
}

void AdjacencyReader::DeferRead() {
  pool_->Submit([&] { store_->ReadBlob(); });  // deferred, not a visitor: fine
}
