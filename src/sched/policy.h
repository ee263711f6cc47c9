/**
 * @file
 * Scheduling policies and the policy-ordered pending queue shared by
 * every execution seam (task-graph ready set, fleet dispatcher).
 *
 * A policy only ever changes the ORDER work is started in — never its
 * results: every consumer is pinned bit-identical to its FIFO run.
 *
 *  - kFifo          arrival order (the pre-policy behaviour; default)
 *  - kBiggestFirst  largest predicted cost first — maximizes
 *                   throughput on a closed batch (long poles start
 *                   early, small jobs backfill the tail)
 *  - kSjf           smallest predicted cost first — minimizes tail
 *                   latency under interactive load
 *  - kFairShare     deficit round robin across client identities
 *                   (SJF within a client) — one tenant's monster
 *                   batch cannot starve another's trivia
 *
 * PendingQueue is deliberately O(n)-scan on pop: every queue in this
 * system holds at most a few thousand entries, and a linear scan under
 * the owner's lock is both simpler and cache-friendlier than a heap
 * per (policy, client).
 */

#ifndef GPUPERF_SCHED_POLICY_H
#define GPUPERF_SCHED_POLICY_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace gpuperf {
namespace sched {

enum class SchedPolicy : uint8_t
{
    kFifo = 0,
    kBiggestFirst,
    kSjf,
    kFairShare,
};

/** Parse "fifo" / "biggest-first" / "sjf" / "fair-share". */
bool parseSchedPolicy(const std::string &name, SchedPolicy *out);

/** The canonical spelling parseSchedPolicy accepts. */
const char *schedPolicyName(SchedPolicy policy);

/** Per-client accounting snapshot (stats surface). */
struct ClientShare
{
    std::string client;
    size_t queued = 0;        ///< entries currently waiting
    uint64_t popped = 0;      ///< entries handed out so far
    double costCharged = 0.0; ///< predicted cost handed out so far
    double deficit = 0.0;     ///< unspent fair-share credit
};

/**
 * A policy-ordered queue of pending work items. NOT thread-safe —
 * callers (Dispatcher, tests) already own a lock around
 * their queue.
 *
 * Urgent entries (pushUrgent) model the dispatcher's crash-steal
 * "push_front": they drain FIFO before any policy-ordered entry, under
 * every policy, so a stolen job is never re-parked behind fresh work.
 */
template <typename T>
class PendingQueue
{
  public:
    explicit PendingQueue(SchedPolicy policy = SchedPolicy::kFifo,
                          double quantum = 0.0)
        : policy_(policy), quantum_(quantum)
    {
    }

    SchedPolicy policy() const { return policy_; }

    void push(T item, double cost, const std::string &client = {})
    {
        Entry e;
        e.item = item;
        e.cost = cost < 0.0 ? 0.0 : cost;
        e.client = clientIndex(client);
        e.seq = nextSeq_++;
        entries_.push_back(e);
    }

    /** FIFO-first regardless of policy (crash-steal re-dispatch). */
    void pushUrgent(T item)
    {
        urgent_.push_back(item);
    }

    bool empty() const { return urgent_.empty() && entries_.empty(); }

    size_t size() const { return urgent_.size() + entries_.size(); }

    /**
     * Remove and return the next item per policy. Precondition:
     * !empty().
     */
    T pop()
    {
        if (!urgent_.empty()) {
            T item = urgent_.front();
            urgent_.pop_front();
            return item;
        }
        const size_t at = pickIndex();
        const Entry e = entries_[at];
        entries_.erase(entries_.begin() +
                       static_cast<ptrdiff_t>(at));
        Client &c = clients_[e.client];
        ++c.popped;
        c.costCharged += e.cost;
        if (policy_ == SchedPolicy::kFairShare)
            settleFairShare(e);
        return e.item;
    }

    /** Remove @p item wherever it waits. True when found. */
    bool erase(const T &item)
    {
        for (auto it = urgent_.begin(); it != urgent_.end(); ++it) {
            if (*it == item) {
                urgent_.erase(it);
                return true;
            }
        }
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->item == item) {
                entries_.erase(it);
                return true;
            }
        }
        return false;
    }

    /** Per-client accounting, in first-seen client order. */
    std::vector<ClientShare> shares() const
    {
        std::vector<ClientShare> out;
        out.reserve(clients_.size());
        for (size_t ci = 0; ci < clients_.size(); ++ci) {
            ClientShare s;
            s.client = clients_[ci].name;
            s.popped = clients_[ci].popped;
            s.costCharged = clients_[ci].costCharged;
            s.deficit = clients_[ci].deficit;
            for (const Entry &e : entries_) {
                if (e.client == ci)
                    ++s.queued;
            }
            out.push_back(std::move(s));
        }
        return out;
    }

  private:
    struct Entry
    {
        T item{};
        double cost = 0.0;
        size_t client = 0;
        uint64_t seq = 0;
    };

    struct Client
    {
        std::string name;
        uint64_t popped = 0;
        double costCharged = 0.0;
        double deficit = 0.0;
    };

    size_t clientIndex(const std::string &name)
    {
        for (size_t i = 0; i < clients_.size(); ++i) {
            if (clients_[i].name == name)
                return i;
        }
        Client c;
        c.name = name;
        clients_.push_back(std::move(c));
        return clients_.size() - 1;
    }

    /** Index into entries_ of the next pop under policy_. */
    size_t pickIndex()
    {
        switch (policy_) {
          case SchedPolicy::kFifo:
            return pickBy([](const Entry &a, const Entry &b) {
                return a.seq < b.seq;
            });
          case SchedPolicy::kSjf:
            return pickBy([](const Entry &a, const Entry &b) {
                return a.cost != b.cost ? a.cost < b.cost
                                        : a.seq < b.seq;
            });
          case SchedPolicy::kBiggestFirst:
            return pickBy([](const Entry &a, const Entry &b) {
                return a.cost != b.cost ? a.cost > b.cost
                                        : a.seq < b.seq;
            });
          case SchedPolicy::kFairShare:
            return pickFairShare();
        }
        return 0;
    }

    template <typename Better>
    size_t pickBy(Better better) const
    {
        size_t best = 0;
        for (size_t i = 1; i < entries_.size(); ++i) {
            if (better(entries_[i], entries_[best]))
                best = i;
        }
        return best;
    }

    /**
     * Deficit round robin, fast-forwarded: instead of looping one
     * quantum at a time, grant every active client the minimum number
     * of whole rounds that lets SOME client afford its cheapest item,
     * then serve the first affordable client in round-robin order
     * from the cursor. Equivalent to classic DRR visit-by-visit, in
     * O(active clients) per pop. A client whose queue drains forfeits
     * its leftover deficit (no hoarding credit while idle).
     */
    size_t pickFairShare()
    {
        // Cheapest entry per active client (SJF within a client).
        std::vector<size_t> cheapest(clients_.size(), kNone);
        double costSum = 0.0;
        for (size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            costSum += e.cost;
            const size_t cur = cheapest[e.client];
            if (cur == kNone ||
                e.cost < entries_[cur].cost ||
                (e.cost == entries_[cur].cost &&
                 e.seq < entries_[cur].seq)) {
                cheapest[e.client] = i;
            }
        }
        const double quantum =
            quantum_ > 0.0
                ? quantum_
                : (costSum > 0.0
                       ? costSum / static_cast<double>(entries_.size())
                       : 1.0);

        // Idle clients forfeit their credit.
        for (size_t ci = 0; ci < clients_.size(); ++ci) {
            if (cheapest[ci] == kNone)
                clients_[ci].deficit = 0.0;
        }

        // Whole rounds until somebody can afford their cheapest item.
        uint64_t need = UINT64_MAX;
        for (size_t ci = 0; ci < clients_.size(); ++ci) {
            if (cheapest[ci] == kNone)
                continue;
            const double gap =
                entries_[cheapest[ci]].cost - clients_[ci].deficit;
            uint64_t rounds = 0;
            if (gap > 0.0) {
                rounds = static_cast<uint64_t>(gap / quantum);
                if (static_cast<double>(rounds) * quantum < gap)
                    ++rounds;
            }
            if (rounds < need)
                need = rounds;
        }
        if (need > 0 && need != UINT64_MAX) {
            const double grant =
                static_cast<double>(need) * quantum;
            for (size_t ci = 0; ci < clients_.size(); ++ci) {
                if (cheapest[ci] != kNone)
                    clients_[ci].deficit += grant;
            }
        }

        // First affordable client in round-robin order from cursor_.
        const size_t n = clients_.size();
        for (size_t step = 0; step < n; ++step) {
            const size_t ci = (cursor_ + step) % n;
            if (cheapest[ci] == kNone)
                continue;
            if (clients_[ci].deficit >=
                entries_[cheapest[ci]].cost) {
                cursor_ = ci; // keep serving this client while it
                              // can still afford work (DRR visit)
                return cheapest[ci];
            }
        }
        // Unreachable after the grant above; keep pop() total anyway.
        for (size_t ci = 0; ci < n; ++ci) {
            if (cheapest[ci] != kNone)
                return cheapest[ci];
        }
        return 0;
    }

    void settleFairShare(const Entry &e)
    {
        Client &c = clients_[e.client];
        c.deficit -= e.cost;
        if (c.deficit < 0.0)
            c.deficit = 0.0;
    }

    static constexpr size_t kNone = static_cast<size_t>(-1);

    SchedPolicy policy_;
    double quantum_;
    uint64_t nextSeq_ = 0;
    std::deque<T> urgent_;
    std::vector<Entry> entries_;
    std::vector<Client> clients_;
    size_t cursor_ = 0;
};

} // namespace sched
} // namespace gpuperf

#endif // GPUPERF_SCHED_POLICY_H
