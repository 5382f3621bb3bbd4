// Intrusive doubly-linked list in the style kernel runqueues use: nodes embed
// their own links, so list membership needs no allocation and removal is O(1)
// given the element.
#ifndef VOS_SRC_BASE_INTRUSIVE_LIST_H_
#define VOS_SRC_BASE_INTRUSIVE_LIST_H_

#include <cstddef>

#include "src/base/assert.h"

namespace vos {

struct ListNode {
  ListNode* prev = nullptr;
  ListNode* next = nullptr;

  bool linked() const { return prev != nullptr; }
};

// T must derive from ListNode (single membership) or embed named ListNode
// members and use the Hook parameter.
template <typename T, ListNode T::* Hook>
class IntrusiveList {
 public:
  IntrusiveList() {
    sentinel_.prev = &sentinel_;
    sentinel_.next = &sentinel_;
  }
  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return sentinel_.next == &sentinel_; }

  std::size_t size() const {
    std::size_t n = 0;
    for (ListNode* p = sentinel_.next; p != &sentinel_; p = p->next) {
      ++n;
    }
    return n;
  }

  void PushBack(T* t) { InsertBefore(&sentinel_, NodeOf(t)); }
  void PushFront(T* t) { InsertBefore(sentinel_.next, NodeOf(t)); }

  T* Front() { return empty() ? nullptr : OwnerOf(sentinel_.next); }
  T* Back() { return empty() ? nullptr : OwnerOf(sentinel_.prev); }
  // The element before t (toward the front), or nullptr at the front: a
  // back-to-front walk is Back(), Prev(), Prev(), ...
  T* Prev(T* t) {
    ListNode* p = NodeOf(t)->prev;
    return p == &sentinel_ ? nullptr : OwnerOf(p);
  }

  T* PopFront() {
    if (empty()) {
      return nullptr;
    }
    ListNode* n = sentinel_.next;
    Unlink(n);
    return OwnerOf(n);
  }

  // Removes and returns the newest element (work stealing takes from the
  // tail so the victim's next-to-run head stays put).
  T* PopBack() {
    if (empty()) {
      return nullptr;
    }
    ListNode* n = sentinel_.prev;
    Unlink(n);
    return OwnerOf(n);
  }

  // Removes t from this list. t must be linked.
  void Remove(T* t) {
    ListNode* n = NodeOf(t);
    VOS_CHECK(n->linked());
    Unlink(n);
  }

  bool Contains(const T* t) const {
    const ListNode* target = &(t->*Hook);
    for (const ListNode* p = sentinel_.next; p != &sentinel_; p = p->next) {
      if (p == target) {
        return true;
      }
    }
    return false;
  }

  // Iteration support (simple forward iterator over owners).
  class Iterator {
   public:
    Iterator(ListNode* n, const IntrusiveList* l) : node_(n), list_(l) {}
    T* operator*() const { return list_->OwnerOf(node_); }
    Iterator& operator++() {
      node_ = node_->next;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return node_ != o.node_; }

   private:
    ListNode* node_;
    const IntrusiveList* list_;
  };

  Iterator begin() { return Iterator(sentinel_.next, this); }
  Iterator end() { return Iterator(&sentinel_, this); }

 private:
  static ListNode* NodeOf(T* t) { return &(t->*Hook); }

  T* OwnerOf(ListNode* n) const {
    // Recover the owning object from the embedded node address.
    auto offset = reinterpret_cast<std::ptrdiff_t>(&(static_cast<T*>(nullptr)->*Hook));
    return reinterpret_cast<T*>(reinterpret_cast<char*>(n) - offset);
  }

  static void InsertBefore(ListNode* pos, ListNode* n) {
    VOS_CHECK_MSG(!n->linked(), "node already on a list");
    n->prev = pos->prev;
    n->next = pos;
    pos->prev->next = n;
    pos->prev = n;
  }

  static void Unlink(ListNode* n) {
    n->prev->next = n->next;
    n->next->prev = n->prev;
    n->prev = nullptr;
    n->next = nullptr;
  }

  ListNode sentinel_;
};

}  // namespace vos

#endif  // VOS_SRC_BASE_INTRUSIVE_LIST_H_
