#include "lint/lockorder.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

namespace agentfirst {
namespace lint {

namespace {

struct Site {
  std::string file;
  size_t line = 0;  // 0-based
};

struct AcqRec {
  std::string lock;
  Site site;
};

struct CallRec {
  std::string callee;
  std::string qualifier;  // "Cls" for Cls::Name(...), else ""
  bool member = false;    // obj.Name(...) / obj->Name(...)
  std::vector<std::string> held;  // locks held at the call, entry included
  Site site;
};

struct WaitRec {
  std::string mutex;
  Site site;
};

struct Function {
  std::string module;
  std::string cls;   // "" for free functions
  std::string name;
  std::set<std::string> entry_held;    // canonical AF_REQUIRES locks
  std::vector<AcqRec> acquisitions;    // direct, never includes entry_held
  std::vector<CallRec> calls;
  std::vector<WaitRec> waits;          // direct waits on held mutexes

  // Resolution / closure state.
  std::vector<Function*> targets;              // parallel to calls (nullptr = unresolved)
  int color = 0;                               // 0 new, 1 on stack, 2 done
  std::map<std::string, Site> acq_closure;     // lock -> first site
  std::map<std::string, Site> wait_closure;    // mutex -> first site

  std::string Display() const {
    return cls.empty() ? module + "::" + name : cls + "::" + name;
  }
};

struct EdgeInfo {
  Site site;        // where the second lock is taken (or the call made)
  std::string via;  // "" for a direct acquisition, else "via call to ..."
};

bool IsCallKeyword(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "if",     "while",  "for",     "switch", "return",  "sizeof",
      "alignof", "new",   "delete",  "throw",  "co_await", "co_return",
      "not",    "and",    "or",      "defined", "static_assert",
  };
  return kKeywords.count(t) > 0;
}

/// Normalizes a lock expression: strips address-of/deref and the this->
/// prefix, folds -> into '.' so pointer and reference spellings agree.
std::string CanonExpr(std::string e) {
  while (!e.empty() && (e[0] == '&' || e[0] == '*')) e.erase(0, 1);
  if (StartsWith(e, "this->")) {
    e = e.substr(6);
  } else if (StartsWith(e, "this.")) {
    e = e.substr(5);
  }
  size_t p = 0;
  while ((p = e.find("->")) != std::string::npos) e.replace(p, 2, ".");
  return e;
}

/// Canonical lock id: the normalized expression qualified by the enclosing
/// class (free functions and file-scope locks qualify by module). An
/// expression that already carries a qualifier keeps it.
std::string QualifyLock(const std::string& module, const std::string& cls,
                        const std::string& expr) {
  std::string canon = CanonExpr(expr);
  if (canon.find("::") != std::string::npos) return canon;
  return (cls.empty() ? module : cls) + "::" + canon;
}

class Analysis {
 public:
  std::vector<Diagnostic> Run(const std::vector<SourceFile>& files) {
    std::vector<const SourceFile*> order;
    order.reserve(files.size());
    for (const SourceFile& sf : files) order.push_back(&sf);
    std::sort(order.begin(), order.end(),
              [](const SourceFile* a, const SourceFile* b) {
                return a->path < b->path;
              });
    for (const SourceFile* sf : order) {
      pres_[sf->path] = &sf->pre;
      for (const auto& decl : sf->pre.lock_orders) declared_.insert(decl);
    }
    for (const SourceFile* sf : order) ScanFile(*sf);
    Resolve();
    GenerateEdges();
    DetectCycles();
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return std::tie(a.file, a.line, a.rule, a.message) <
                       std::tie(b.file, b.line, b.rule, b.message);
              });
    return std::move(diags_);
  }

 private:
  // --- per-file scan ---------------------------------------------------------

  struct ScopeData {
    size_t locks = 0;   // locks acquired directly in this scope
    bool is_fn = false;
    bool is_type = false;
  };
  struct FnCtx {
    Function* fn = nullptr;
    std::vector<std::string> held;  // acquisition stack, entry_held excluded
  };

  Function* Get(const std::string& module, const std::string& cls,
                const std::string& name) {
    std::string key = module + "\n" + cls + "\n" + name;
    auto it = functions_.find(key);
    if (it == functions_.end()) {
      it = functions_.emplace(key, Function{}).first;
      it->second.module = module;
      it->second.cls = cls;
      it->second.name = name;
    }
    return &it->second;
  }

  void Report(const Site& site, const std::string& rule, std::string message) {
    auto pre = pres_.find(site.file);
    if (pre != pres_.end() && pre->second->Allowed(site.line, rule)) return;
    Diagnostic d{site.file, site.line + 1, rule, std::move(message)};
    if (seen_.insert(d.ToString()).second) diags_.push_back(std::move(d));
  }

  void ScanFile(const SourceFile& sf) {
    const std::string module = ModuleOfPath(sf.path);
    if (module.empty() || module == "tools") return;
    std::vector<Token> tokens = Tokenize(sf.pre);
    ScopeWalker walker;
    std::vector<ScopeData> scopes;
    std::vector<FnCtx> fns;
    std::vector<std::string> type_stack;
    size_t lambda_seq = 0;

    auto all_held = [&](const FnCtx& f) {
      std::vector<std::string> out(f.fn->entry_held.begin(),
                                   f.fn->entry_held.end());
      out.insert(out.end(), f.held.begin(), f.held.end());
      return out;
    };

    auto handle_acquire = [&](const std::string& expr, size_t line) {
      if (fns.empty()) return;
      FnCtx& f = fns.back();
      std::string id = QualifyLock(module, f.fn->cls, expr);
      bool already = f.fn->entry_held.count(id) > 0 ||
                     std::find(f.held.begin(), f.held.end(), id) != f.held.end();
      if (already) {
        Report({sf.path, line}, "lock-self-deadlock",
               "MutexLock on '" + id +
                   "' which is already held here (AF_REQUIRES entry or an "
                   "enclosing scope): a non-recursive Mutex self-deadlocks");
        return;
      }
      for (const std::string& h : all_held(f)) {
        edges_.emplace(std::make_pair(h, id), EdgeInfo{{sf.path, line}, ""});
      }
      f.fn->acquisitions.push_back({id, {sf.path, line}});
      f.held.push_back(id);
      if (!scopes.empty()) ++scopes.back().locks;
    };

    auto handle_wait = [&](const std::string& arg, size_t line) {
      if (fns.empty()) return;
      FnCtx& f = fns.back();
      std::string id = QualifyLock(module, f.fn->cls, arg);
      std::vector<std::string> held = all_held(f);
      if (std::find(held.begin(), held.end(), id) == held.end()) {
        return;  // not a wait on a lock we track — some unrelated Wait()
      }
      f.fn->waits.push_back({id, {sf.path, line}});
      std::string extras;
      for (const std::string& h : held) {
        if (h == id) continue;
        if (!extras.empty()) extras += ", ";
        extras += "'" + h + "'";
      }
      if (!extras.empty()) {
        Report({sf.path, line}, "condvar-hold",
               "Wait(" + id + ") while also holding " + extras +
                   ": Wait releases only its own mutex, so the extra lock "
                   "stays held while blocked and deadlocks any waker that "
                   "needs it");
      }
    };

    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      const std::string& text = t.text;
      auto next_is = [&](const char* s) {
        return i + 1 < tokens.size() && tokens[i + 1].text == s;
      };

      if (text == ";") {
        // Declarations carry the AF_REQUIRES contract that the definition
        // (often in the .cc, without repeating the macro) must inherit.
        const std::vector<Token>& sig = walker.pending_sig();
        bool has_requires = false;
        for (const Token& st : sig) {
          if (st.text == "AF_REQUIRES") {
            has_requires = true;
            break;
          }
        }
        if (has_requires) {
          SigInfo d = ClassifySignature(sig);
          if (d.kind == SigInfo::kFunction && !d.name.empty() &&
              !d.requires_args.empty()) {
            std::string cls = !d.class_qualifier.empty()
                                  ? d.class_qualifier
                                  : (type_stack.empty() ? "" : type_stack.back());
            Function* fn = Get(module, cls, d.name);
            for (const std::string& arg : d.requires_args) {
              fn->entry_held.insert(QualifyLock(module, cls, arg));
            }
          }
        }
      } else if (text == "MutexLock" && i + 2 < tokens.size() &&
                 tokens[i + 1].IsIdent() && tokens[i + 2].text == "(") {
        int depth = 0;
        std::string expr;
        for (size_t j = i + 2; j < tokens.size(); ++j) {
          const std::string& jt = tokens[j].text;
          if (jt == "(") {
            if (depth++ > 0) expr += jt;
          } else if (jt == ")") {
            if (--depth == 0) break;
            expr += jt;
          } else if (depth >= 1) {
            expr += jt;
          }
        }
        if (!expr.empty()) handle_acquire(expr, t.line);
      } else if ((text == "Wait" || text == "WaitFor" || text == "WaitUntil") &&
                 i > 0 &&
                 (tokens[i - 1].text == "." || tokens[i - 1].text == "->") &&
                 next_is("(")) {
        int depth = 0;
        std::string arg;
        for (size_t j = i + 1; j < tokens.size(); ++j) {
          const std::string& jt = tokens[j].text;
          if (jt == "(") {
            if (depth++ > 0) arg += jt;
          } else if (jt == ")") {
            if (--depth == 0) break;
            arg += jt;
          } else if (jt == "," && depth == 1) {
            break;  // first argument only: the mutex
          } else if (depth >= 1) {
            arg += jt;
          }
        }
        if (!arg.empty()) handle_wait(arg, t.line);
      } else if (t.IsIdent() && !IsCallKeyword(text) && next_is("(") &&
                 !fns.empty()) {
        const std::string prev = i > 0 ? tokens[i - 1].text : "";
        bool declaration = (i > 0 && tokens[i - 1].IsIdent()) || prev == "~";
        if (!declaration) {
          CallRec call;
          call.callee = text;
          call.member = prev == "." || prev == "->";
          if (call.member && i >= 2 && tokens[i - 2].text == "this") {
            call.member = false;  // this->F() is an own-class call
          }
          if (prev == "::" && i >= 2 && tokens[i - 2].IsIdent()) {
            call.qualifier = tokens[i - 2].text;
          }
          call.held = all_held(fns.back());
          call.site = {sf.path, t.line};
          fns.back().fn->calls.push_back(std::move(call));
        }
      }

      ScopeWalker::Event ev = walker.Feed(t);
      if (ev == ScopeWalker::Event::kOpen) {
        const SigInfo& sig = walker.stack().back().sig;
        ScopeData sd;
        switch (sig.kind) {
          case SigInfo::kType:
            sd.is_type = true;
            type_stack.push_back(sig.name);
            break;
          case SigInfo::kFunction: {
            std::string cls = !sig.class_qualifier.empty()
                                  ? sig.class_qualifier
                                  : (type_stack.empty() ? "" : type_stack.back());
            Function* fn =
                Get(module, cls, sig.name.empty() ? "<anon>" : sig.name);
            for (const std::string& arg : sig.requires_args) {
              fn->entry_held.insert(QualifyLock(module, cls, arg));
            }
            fns.push_back({fn, {}});
            sd.is_fn = true;
            break;
          }
          case SigInfo::kLambda: {
            // A lambda is a separate anonymous function: it may run later on
            // another thread, so it inherits no held locks — only what its
            // own AF_REQUIRES declares. It does inherit the enclosing class
            // for lock naming (captured members are that class's members).
            std::string cls = fns.empty() ? "" : fns.back().fn->cls;
            Function* fn = Get(module, cls,
                               "<lambda@" + sf.path + "#" +
                                   std::to_string(++lambda_seq) + ">");
            for (const std::string& arg : sig.requires_args) {
              fn->entry_held.insert(QualifyLock(module, cls, arg));
            }
            fns.push_back({fn, {}});
            sd.is_fn = true;
            break;
          }
          default:
            break;
        }
        scopes.push_back(sd);
      } else if (ev == ScopeWalker::Event::kClose) {
        if (!scopes.empty()) {
          ScopeData sd = scopes.back();
          scopes.pop_back();
          if (sd.is_type && !type_stack.empty()) type_stack.pop_back();
          if (sd.is_fn) {
            if (!fns.empty()) fns.pop_back();
          } else if (!fns.empty()) {
            FnCtx& f = fns.back();
            for (size_t k = 0; k < sd.locks && !f.held.empty(); ++k) {
              f.held.pop_back();
            }
          }
        }
      }
    }
  }

  // --- whole-program phases --------------------------------------------------

  void Resolve() {
    // (module, name) -> every function with that name, for the
    // unique-in-module fallback on bare calls.
    std::map<std::pair<std::string, std::string>, std::vector<Function*>> by_name;
    for (auto& [key, fn] : functions_) {
      by_name[{fn.module, fn.name}].push_back(&fn);
    }
    auto exact = [&](const std::string& module, const std::string& cls,
                     const std::string& name) -> Function* {
      auto it = functions_.find(module + "\n" + cls + "\n" + name);
      return it == functions_.end() ? nullptr : &it->second;
    };
    for (auto& [key, fn] : functions_) {
      fn.targets.reserve(fn.calls.size());
      for (const CallRec& c : fn.calls) {
        Function* target = nullptr;
        if (!c.qualifier.empty()) {
          target = exact(fn.module, c.qualifier, c.callee);
        } else if (!c.member) {
          // Own class first (unqualified same-class calls); bare calls may
          // also resolve to the unique function of that name in the module.
          // Member calls on a foreign object (`obj.F()`, `file_.Sync()`)
          // resolve to nothing: the receiver's type is unknown, and guessing
          // the caller's own class manufactures self-deadlock false
          // positives (e.g. `shard.lru.size()` is not the caller's own `size()`).
          target = exact(fn.module, fn.cls, c.callee);
          if (target == nullptr) {
            auto it = by_name.find({fn.module, c.callee});
            if (it != by_name.end() && it->second.size() == 1) {
              target = it->second[0];
            }
          }
        }
        fn.targets.push_back(target == &fn ? nullptr : target);
      }
    }
    for (auto& [key, fn] : functions_) Close(&fn);
  }

  /// Transitive acquisitions/waits. Mutual recursion under-approximates: an
  /// on-stack callee contributes nothing (documented soundness limit).
  void Close(Function* f) {
    if (f->color != 0) return;
    f->color = 1;
    for (const AcqRec& a : f->acquisitions) {
      f->acq_closure.emplace(a.lock, a.site);
    }
    for (const WaitRec& w : f->waits) {
      f->wait_closure.emplace(w.mutex, w.site);
    }
    for (size_t i = 0; i < f->calls.size(); ++i) {
      Function* t = f->targets[i];
      if (t == nullptr || t->color == 1) continue;
      Close(t);
      for (const auto& [lock, site] : t->acq_closure) {
        f->acq_closure.emplace(lock, f->calls[i].site);
      }
      for (const auto& [mutex, site] : t->wait_closure) {
        f->wait_closure.emplace(mutex, f->calls[i].site);
      }
    }
    f->color = 2;
  }

  void GenerateEdges() {
    for (auto& [key, fn] : functions_) {
      for (size_t i = 0; i < fn.calls.size(); ++i) {
        Function* t = fn.targets[i];
        if (t == nullptr) continue;
        const CallRec& c = fn.calls[i];
        if (c.held.empty()) continue;
        for (const std::string& h : c.held) {
          for (const auto& [lock, site] : t->acq_closure) {
            if (lock == h) {
              Report(c.site, "lock-self-deadlock",
                     "call to '" + t->Display() + "' re-acquires '" + h +
                         "' already held here (through the call chain): a "
                         "non-recursive Mutex self-deadlocks");
            } else {
              edges_.emplace(std::make_pair(h, lock),
                             EdgeInfo{c.site, "via call to " + t->Display()});
            }
          }
          for (const auto& [mutex, site] : t->wait_closure) {
            if (mutex == h) continue;
            Report(c.site, "condvar-hold",
                   "call to '" + t->Display() + "' reaches Wait(" + mutex +
                       ") while '" + h +
                       "' is held here: Wait releases only its own mutex");
          }
        }
      }
    }
    // Declared orderings kill contradicting reverse edges before cycle
    // detection: aflint:lock-order(A, B) asserts A always precedes B, so a
    // computed B -> A edge is an artifact of over-approximation.
    for (const auto& [a, b] : declared_) {
      edges_.erase(std::make_pair(b, a));
    }
  }

  void DetectCycles() {
    // Deterministic adjacency (std::map keeps both endpoints sorted).
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [edge, info] : edges_) {
      adj[edge.first].push_back(edge.second);
      adj[edge.second];  // make sure the sink exists as a node
    }

    // Tarjan SCC, iterative over an explicit stack for determinism and to
    // keep deep chains off the call stack.
    std::map<std::string, int> index, low;
    std::map<std::string, bool> on_stack;
    std::vector<std::string> stack;
    std::vector<std::vector<std::string>> sccs;
    int next_index = 0;
    struct Frame {
      std::string node;
      size_t child = 0;
    };
    for (const auto& [start, ignored] : adj) {
      if (index.count(start) > 0) continue;
      std::vector<Frame> frames;
      frames.push_back({start});
      index[start] = low[start] = next_index++;
      stack.push_back(start);
      on_stack[start] = true;
      while (!frames.empty()) {
        Frame& f = frames.back();
        const std::vector<std::string>& out = adj[f.node];
        if (f.child < out.size()) {
          const std::string& next = out[f.child++];
          if (index.count(next) == 0) {
            index[next] = low[next] = next_index++;
            stack.push_back(next);
            on_stack[next] = true;
            frames.push_back({next});
          } else if (on_stack[next]) {
            low[f.node] = std::min(low[f.node], index[next]);
          }
        } else {
          if (low[f.node] == index[f.node]) {
            std::vector<std::string> scc;
            while (true) {
              std::string n = stack.back();
              stack.pop_back();
              on_stack[n] = false;
              scc.push_back(n);
              if (n == f.node) break;
            }
            if (scc.size() > 1) sccs.push_back(std::move(scc));
          }
          std::string done = f.node;
          frames.pop_back();
          if (!frames.empty()) {
            low[frames.back().node] =
                std::min(low[frames.back().node], low[done]);
          }
        }
      }
    }

    for (std::vector<std::string>& scc : sccs) {
      std::sort(scc.begin(), scc.end());
      ReportCycle(scc);
    }
  }

  void ReportCycle(const std::vector<std::string>& scc) {
    // Recover one concrete cycle through the SCC, starting from its
    // smallest node, always taking the smallest in-SCC neighbor first.
    std::set<std::string> members(scc.begin(), scc.end());
    const std::string& start = scc.front();
    std::vector<std::string> path{start};
    std::set<std::string> visited{start};
    bool closed = false;
    while (!closed) {
      const std::string& cur = path.back();
      std::string chosen;
      for (const auto& [edge, info] : edges_) {
        if (edge.first != cur || members.count(edge.second) == 0) continue;
        if (edge.second == start && path.size() > 1) {
          chosen = edge.second;
          closed = true;
          break;
        }
        if (visited.count(edge.second) == 0 && chosen.empty()) {
          chosen = edge.second;
        }
      }
      if (closed) break;
      if (chosen.empty()) {
        // Dead end (shouldn't happen inside an SCC); back out gracefully.
        if (path.size() <= 1) return;
        path.pop_back();
        continue;
      }
      visited.insert(chosen);
      path.push_back(chosen);
    }
    path.push_back(start);

    std::string desc = "lock-order cycle: ";
    Site report_site;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const EdgeInfo& info = edges_.at({path[i], path[i + 1]});
      if (i == 0) {
        report_site = info.site;
        desc += path[i];
      }
      desc += " -> " + path[i + 1] + " [" + info.site.file + ":" +
              std::to_string(info.site.line + 1) +
              (info.via.empty() ? "" : " " + info.via) + "]";
    }
    desc +=
        ": opposite acquisition orders deadlock under the right "
        "interleaving; fix one path or declare the intended order with "
        "aflint:lock-order(A, B)";
    Report(report_site, "lock-order-cycle", desc);
  }

  std::map<std::string, Function> functions_;
  std::map<std::string, const PrelexedSource*> pres_;
  std::set<std::pair<std::string, std::string>> declared_;
  std::map<std::pair<std::string, std::string>, EdgeInfo> edges_;
  std::set<std::string> seen_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> AnalyzeLockOrder(const std::vector<SourceFile>& files) {
  return Analysis().Run(files);
}

}  // namespace lint
}  // namespace agentfirst
