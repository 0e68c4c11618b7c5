//! The client that records a run's [`History`]: it draws each request from
//! a workload and keeps what the replies say.

use recipe::core::{Operation, Request};
use recipe::shard::{Client, Reply};

use super::history::{History, Op};

/// A [`Client`] that records into a [`History`] what its workload issues
/// and what the replies say.
pub struct Recorder<'a, W> {
    workload: W,
    history: &'a mut History,
    /// Per client, where its open request's operations sit in the history.
    open: Vec<std::ops::Range<usize>>,
}

impl History {
    /// A client running `workload` that records into this history.
    pub fn record<W>(&mut self, workload: W) -> Recorder<'_, W>
    where
        W: FnMut(u64, u64) -> Option<Request>,
    {
        let (history, open) = (self, Vec::new());
        Recorder {
            workload,
            history,
            open,
        }
    }
}

impl<W: FnMut(u64, u64) -> Option<Request>> Client for Recorder<'_, W> {
    fn next(&mut self, client: u64, seq: u64, at_ns: u64) -> Option<Request> {
        let request = (self.workload)(client, seq)?;
        let ops = &mut self.history.ops;
        let start = ops.len();
        for op in request.ops() {
            let (key, value) = match op {
                Operation::Put { key, value } => (key, Some(value.clone())),
                // A transaction's reads get no reply to record.
                Operation::Get { .. } if request.is_txn() => continue,
                Operation::Get { key } => (key, None),
            };
            ops.push(Op {
                client,
                request_id: seq,
                invoke: at_ns,
                response: None,
                key: key.clone(),
                is_write: value.is_some(),
                value,
            });
        }
        let open = &mut self.open;
        open.resize(open.len().max(client as usize + 1), 0..0);
        open[client as usize] = start..ops.len();
        Some(request)
    }

    fn done(&mut self, reply: &Reply<'_>) {
        let open = self.open[reply.client as usize].clone();
        for op in &mut self.history.ops[open] {
            assert_eq!(
                op.request_id, reply.request_id,
                "a reply to a request not open"
            );
            op.response = Some(reply.at_ns);
            if !op.is_write {
                op.value = reply.value.map(<[u8]>::to_vec);
            }
        }
    }
}
