//! The server socket buffer.
//!
//! "A typical NFS server system simply waits for work to appear on an incoming
//! request queue.  This queue is the socket buffer allocated for the NFS
//! socket.  [...] If the queue fills (requests coming in faster than they can
//! be processed) then some incoming requests may be lost and client
//! backoff/retransmission comes into play." (§4.2)
//!
//! [`SocketBuffer`] is that queue: a FIFO of incoming datagrams bounded by a
//! byte capacity (DEC OSF/1 used at most 0.25 MB, per the paper's
//! Conclusions).  It also supports the "mbuf hunter" (§6.5): scanning the
//! queued-but-unserviced requests for another write to a given file, which is
//! how a fast Prestoserve server discovers gathering opportunities without
//! blocking.

use std::collections::VecDeque;

/// A bounded FIFO of incoming datagrams with byte-capacity accounting.
#[derive(Clone, Debug)]
pub struct SocketBuffer<T> {
    entries: VecDeque<(usize, T)>,
    capacity_bytes: usize,
    used_bytes: usize,
}

impl<T> SocketBuffer<T> {
    /// A buffer with an explicit byte capacity.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        SocketBuffer {
            entries: VecDeque::new(),
            capacity_bytes,
            used_bytes: 0,
        }
    }

    /// Offer an incoming datagram of `size` bytes.  Returns `true` if it was
    /// queued, `false` if it was dropped because the buffer was full (the
    /// caller counts the drop; its client will eventually retransmit).
    pub fn offer(&mut self, size: usize, item: T) -> bool {
        if self.used_bytes + size > self.capacity_bytes {
            return false;
        }
        self.used_bytes += size;
        self.entries.push_back((size, item));
        true
    }

    /// Dequeue the oldest datagram.
    pub fn take(&mut self) -> Option<T> {
        let (size, item) = self.entries.pop_front()?;
        self.used_bytes -= size;
        Some(item)
    }

    /// Peek at the queued datagrams without consuming them, oldest first.
    ///
    /// This is the scan the paper's "mbuf hunter" performs: an nfsd that has
    /// already pushed its data into the filesystem looks at the unserviced
    /// queue for another write to the same file before deciding whether to
    /// defer its reply.
    pub fn scan(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, item)| item)
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut sb = SocketBuffer::with_capacity(500);
        for i in 0..5u32 {
            assert!(sb.offer(100, i));
        }
        let order: Vec<_> = std::iter::from_fn(|| sb.take()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(sb.is_empty());
        // Taking everything gave the whole capacity back.
        assert!(sb.offer(500, 5));
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut sb = SocketBuffer::with_capacity(1000);
        // "b" overflows; "c" fills the buffer exactly, so "d" cannot fit.
        let offers = [("a", 600), ("b", 600), ("c", 400), ("d", 1)];
        let accepted = offers.map(|(item, size)| sb.offer(size, item));
        assert_eq!(accepted, [true, false, true, false]);
        let queued: Vec<_> = std::iter::from_fn(|| sb.take()).collect();
        assert_eq!(queued, vec!["a", "c"]);
    }

    #[test]
    fn scan_sees_everything_without_consuming() {
        let mut sb = SocketBuffer::with_capacity(30);
        sb.offer(10, 1u32);
        sb.offer(10, 2u32);
        sb.offer(10, 3u32);
        let seen: Vec<_> = sb.scan().copied().collect();
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(sb.scan().count(), 3);
    }

    #[test]
    fn freed_space_can_be_reused() {
        let mut sb = SocketBuffer::with_capacity(100);
        assert!(sb.offer(100, 1u8));
        assert!(!sb.offer(1, 2u8));
        sb.take();
        assert!(sb.offer(100, 3u8));
        assert_eq!(sb.take(), Some(3));
    }
}
