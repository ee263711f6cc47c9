#include "common/task_graph.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logging.h"

namespace gpuperf {

TaskGraph::TaskGraph(ThreadPool &pool) : pool_(pool) {}

TaskGraph::~TaskGraph() = default;

TaskGraph::NodeId
TaskGraph::add(std::string name, std::function<void()> fn,
               const std::vector<NodeId> &deps)
{
    bool ready = false;
    NodeId id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (finished_)
            throw std::logic_error(
                "TaskGraph: add() after run() completed");
        id = nodes_.size();
        // Validate every dependency BEFORE touching any dependents
        // list: throwing halfway would leave a dangling dependent id
        // pointing at a node that was never created.
        for (NodeId dep : deps) {
            if (dep >= id)
                throw std::logic_error(
                    "TaskGraph: dependency on a node that does not "
                    "exist yet (edges must point backwards, which also "
                    "keeps the graph acyclic)");
        }
        // The node joins nodes_ before any dependents list learns its
        // id, and a registration failure (allocation) rolls both
        // back — no path leaves a dep holding an id that was never
        // created or that can never be notified.
        nodes_.push_back(std::make_unique<Node>());
        Node &node = *nodes_[id];
        node.name = std::move(name);
        node.fn = std::move(fn);
        std::exception_ptr cause;
        try {
            for (NodeId dep : deps) {
                Node &d = *nodes_[dep];
                switch (d.state) {
                  case NodeState::kDone:
                    break; // already satisfied
                  case NodeState::kFailed:
                  case NodeState::kSkipped:
                    if (!cause)
                        cause = d.error;
                    break;
                  default:
                    d.dependents.push_back(id);
                    ++node.waiting;
                    break;
                }
            }
        } catch (...) {
            for (NodeId dep : deps) {
                auto &v = nodes_[dep]->dependents;
                v.erase(std::remove(v.begin(), v.end(), id), v.end());
            }
            nodes_.pop_back();
            throw;
        }
        ++unfinished_;
        if (cause) {
            // A dependency already failed: the node joins the graph
            // only to be settled as skipped (it has no dependents of
            // its own yet, so no cascade).
            nodes_[id]->state = NodeState::kSkipped;
            nodes_[id]->error = cause;
            nodes_[id]->fn = nullptr;
            finishOneLocked();
        } else if (running_ && nodes_[id]->waiting == 0) {
            ready = true;
        }
    }
    if (ready)
        submit(id);
    return id;
}

void
TaskGraph::run()
{
    std::vector<NodeId> roots;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (running_ || finished_)
            throw std::logic_error("TaskGraph: run() is one-shot");
        running_ = true;
        for (NodeId id = 0; id < nodes_.size(); ++id) {
            if (nodes_[id]->state == NodeState::kPending &&
                nodes_[id]->waiting == 0) {
                roots.push_back(id);
            }
        }
    }
    for (NodeId id : roots)
        submit(id);

    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [this]() { return unfinished_ == 0; });
    running_ = false;
    finished_ = true;
}

void
TaskGraph::submit(NodeId id)
{
    // The returned future is deliberately dropped: execute() catches
    // everything the body throws, so the future can never carry an
    // exception, and completion is tracked by unfinished_.
    pool_.submit([this, id]() { execute(id); });
}

void
TaskGraph::execute(NodeId id)
{
    std::function<void()> fn;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Node &node = *nodes_[id];
        GPUPERF_ASSERT(node.state == NodeState::kPending,
                       "task-graph node executed twice");
        node.state = NodeState::kRunning;
        // Run the body without the graph lock (it may add nodes),
        // moving it out so captures die as soon as the node finishes.
        fn = std::move(node.fn);
        node.fn = nullptr;
    }

    std::exception_ptr err;
    try {
        fn();
    } catch (...) {
        err = std::current_exception();
    }
    fn = nullptr;

    std::vector<NodeId> ready;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Node &node = *nodes_[id];
        if (err) {
            node.state = NodeState::kFailed;
            node.error = err;
            // Settle the node itself BEFORE cascading so the cascade
            // never revisits it.
            finishOneLocked();
            for (NodeId dep : node.dependents)
                skipCascadeLocked(dep, err);
        } else {
            node.state = NodeState::kDone;
            finishOneLocked();
            for (NodeId dep : node.dependents) {
                Node &d = *nodes_[dep];
                if (d.state != NodeState::kPending)
                    continue; // already skipped by a failed sibling
                if (--d.waiting == 0)
                    ready.push_back(dep);
            }
        }
    }
    for (NodeId dep : ready)
        submit(dep);
}

void
TaskGraph::skipCascadeLocked(NodeId id, const std::exception_ptr &cause)
{
    // Iterative DFS: a deep chain must not overflow the stack.
    std::vector<NodeId> stack{id};
    while (!stack.empty()) {
        const NodeId cur = stack.back();
        stack.pop_back();
        Node &node = *nodes_[cur];
        if (node.state != NodeState::kPending)
            continue; // running/finished, or already skipped
        node.state = NodeState::kSkipped;
        node.error = cause;
        node.fn = nullptr;
        finishOneLocked();
        for (NodeId dep : node.dependents)
            stack.push_back(dep);
    }
}

void
TaskGraph::finishOneLocked()
{
    GPUPERF_ASSERT(unfinished_ > 0, "task-graph finish underflow");
    if (--unfinished_ == 0)
        drained_.notify_all();
}

TaskGraph::NodeState
TaskGraph::state(NodeId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nodes_.at(id)->state;
}

std::exception_ptr
TaskGraph::error(NodeId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nodes_.at(id)->error;
}

const std::string &
TaskGraph::name(NodeId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nodes_.at(id)->name;
}

size_t
TaskGraph::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nodes_.size();
}

std::vector<TaskGraph::NodeId>
TaskGraph::failures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<NodeId> out;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id]->state == NodeState::kFailed)
            out.push_back(id);
    }
    return out;
}

} // namespace gpuperf
