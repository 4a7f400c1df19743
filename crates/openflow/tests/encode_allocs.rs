//! Pins the one-allocation property of the encoders: a top-level encode
//! allocates once, at exactly the encoded length, and never grows or
//! shrinks a buffer on the way.
//!
//! The allocator below counts allocations and reallocations on the
//! calling thread only, so tests running in parallel cannot disturb one
//! another's counts.

mod cases;

use attain_openflow::Frame;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct ThreadCountingAlloc;

impl ThreadCountingAlloc {
    fn count() {
        // A `const` thread-local with no destructor never allocates and
        // stays readable for the thread's whole life.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local `Cell`.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// Runs `f` and returns its result with the allocations and
/// reallocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn message_encodes_allocate_once_at_size() {
    for (name, msg) in cases::messages() {
        let _warm_up = msg.try_encode(cases::XID);
        let (bytes, allocs) = counted(|| msg.try_encode(cases::XID).expect(name));
        assert_eq!(allocs, 1, "{name}: try_encode allocations");
        assert_eq!(bytes.capacity(), bytes.len(), "{name}: try_encode capacity");

        let owned = msg.clone();
        let (frame, allocs) = counted(move || Frame::from_message(owned, cases::XID));
        assert_eq!(
            allocs, 2,
            "{name}: Frame::from_message allocates the bytes and the Arc"
        );
        assert_eq!(frame.bytes(), bytes.as_slice(), "{name}");
    }
}

#[test]
fn packet_encodes_allocate_once_at_size() {
    for (name, frame) in cases::packets() {
        let _warm_up = frame.encode();
        let (bytes, allocs) = counted(|| frame.encode());
        assert_eq!(allocs, 1, "{name}: Ethernet::encode allocations");
        assert_eq!(bytes.capacity(), bytes.len(), "{name}: encode capacity");

        let (len, allocs) = counted(|| frame.wire_len());
        assert_eq!(allocs, 0, "{name}: wire_len must not encode");
        assert_eq!(len, bytes.len(), "{name}: wire_len");
    }
}
