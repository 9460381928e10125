//! The per-node state machine of the open-cube algorithm (Section 3), with
//! hooks into the fault-tolerance machinery of Section 5 (implemented in
//! [`crate::search`] and [`crate::enquiry`]).

use oc_sim::{Counter, NodeEvent, Outbox, Protocol};
use oc_topology::{canonical_father, dist, NodeId};

use crate::{
    config::Config,
    fair_queue::{FairQueue, Work},
    message::Msg,
    mint::MintState,
    search::SearchState,
};

/// Timer identities (node-local).
pub(crate) const TIMER_TOKEN_WAIT: u64 = 1;
pub(crate) const TIMER_ROOT_LOAN: u64 = 2;
pub(crate) const TIMER_ENQUIRY: u64 = 3;
pub(crate) const TIMER_SEARCH_PHASE: u64 = 4;
pub(crate) const TIMER_MINT: u64 = 5;

/// Where the local application's claim number `local_seq` stands — what
/// the node answers the root's enquiry about it (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocalState {
    /// No local claim outstanding: the last one, if any, was served or
    /// lost to a crash.
    Idle,
    /// Requested, the token not yet received.
    Waiting,
    /// In the critical section.
    InCs,
}

/// An outstanding loan made by this node as root (Section 5, "Root").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loan {
    pub claimant: NodeId,
    pub source: NodeId,
    pub source_seq: u32,
    /// `true` when the token went directly to the source (j = s).
    pub direct: bool,
    /// Set once an enquiry answered "returned"; a second "returned" for the
    /// same loan means the return message can no longer be in flight.
    pub returned_once: bool,
    /// `true` while an enquiry is in flight and unanswered. Replies that
    /// arrive while no enquiry is outstanding are duplicates (or stale
    /// echoes) and must be ignored: the "returned twice" and "source
    /// silent" deductions are sound only if each enquiry round consumes at
    /// most one reply. Surfaced by the adversarial explorer under
    /// duplicate-delivery faults — a doubled `TokenReturned` frame used to
    /// regenerate the token while the real one was still in flight.
    pub enquiry_outstanding: bool,
}

/// What a node holds only once the Section 5 machinery has touched it:
/// the promised and the witnessed mint epochs, the running mint ballot
/// and its search. One box behind one pointer, allocated on the first
/// write, so a node that never searched, minted, granted a ballot or saw
/// an epoch above 0 — every node of a fault-free run under
/// `Hardening::None`, and one that only enquired or bounced an anomaly —
/// owns none of it. The fault path's counts are not here: they leave
/// through the outbox ([`oc_sim::Outbox::count`]). It survives
/// `on_crash`: the epochs are stable storage.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultState {
    /// Highest mint ballot this node has granted (a Paxos-style promise).
    /// Stable storage — promise amnesia across a crash would let two
    /// quorums form for one epoch. Invariant: `epoch_promised >=
    /// epoch_seen`.
    pub epoch_promised: u64,
    /// Highest minted token epoch this node has witnessed — on a token it
    /// received or a request that gossiped it. Stable storage: fencing
    /// must survive crashes. Every request and token the node sends
    /// carries it ([`OpenCubeNode::epoch_seen`]); it is 0 while the node
    /// has no box, and always under `Hardening::None`.
    pub epoch_seen: u64,
    /// In-progress mint ballot (`Hardening::Quorum`; see `crate::mint`).
    /// Volatile: a crash abandons it.
    pub mint: Option<MintState>,
    /// The node's search: running while [`SearchState::running`], and
    /// otherwise the last one, kept so that the next reuses its ring
    /// buffers and allocates nothing. The buffers are capacity, not
    /// protocol state: a crash ends the search and keeps them. Inline,
    /// not boxed apart: under `Hardening::None` only a search opens the
    /// box, so one allocation holds both.
    pub search: SearchState,
}

// The two epochs, the ballot and the search.
const _: () = assert!(size_of::<FaultState>() <= 168);

impl FaultState {
    /// `true` while a ballot or a search runs.
    fn busy(&self) -> bool {
        self.mint.is_some() || self.search.running()
    }
}

/// One node of the open-cube mutual exclusion algorithm.
///
/// Implements [`Protocol`], so it runs under the deterministic simulator
/// (`oc_sim::World`), the threaded runtime (`oc-runtime`), or any driver
/// that feeds it [`NodeEvent`]s.
#[derive(Debug, Clone)]
pub struct OpenCubeNode {
    id: NodeId,
    /// Shared, immutable run configuration. One `Arc` is shared by every
    /// node of a world (`build_all`), so the per-node cost is one pointer
    /// instead of the full ~48-byte `Config` — a measurable slice of the
    /// per-node footprint at n = 2^24.
    cfg: std::sync::Arc<Config>,

    // ---- Section 3 variables (paper names in comments) ----
    /// `token_here_i`
    token_here: bool,
    /// `asking_i`
    asking: bool,
    /// The local claim `local_seq`: waiting, in the critical section, or
    /// none outstanding.
    local: LocalState,
    /// `father_i`
    father: Option<NodeId>,
    /// `lender_i` — meaningful only while in the critical section
    lender: NodeId,
    /// `mandator_i`
    mandator: Option<NodeId>,
    /// the fair waiting queue
    queue: FairQueue,

    // ---- claim bookkeeping (Section 5 prose, see message.rs docs) ----
    /// (source, seq) of the claim this node is currently asking for.
    current_claim: Option<(NodeId, u32)>,
    /// Sequence counter for this node's own CS requests.
    local_seq: u32,

    // ---- Section 5 state ----
    /// Inline, not in `fault`: a root lends on every remote claim it
    /// serves, fault-free runs included.
    pub(crate) loan: Option<Loan>,
    /// Set when the node recovered in a mode that cannot re-join (fault
    /// tolerance disabled): it ignores all input.
    inert: bool,
    /// Everything else of Section 5, the search and the hardened mode's
    /// epochs among it; absent until first written.
    fault: Option<Box<FaultState>>,
}

// The Section 3 variables, the claim bookkeeping, the loan and one pointer
// to the rest of Section 5.
const _: () = assert!(size_of::<OpenCubeNode>() <= 88);

impl OpenCubeNode {
    /// Creates the node in its canonical initial position: `father` per the
    /// canonical cube, the token at node 1.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside `1..=cfg.n`.
    #[must_use]
    pub fn new(id: NodeId, cfg: Config) -> Self {
        OpenCubeNode::with_shared_config(id, std::sync::Arc::new(cfg))
    }

    /// Like [`OpenCubeNode::new`] but sharing an already-allocated
    /// configuration — `build_all` hands every node the same `Arc`.
    #[must_use]
    pub fn with_shared_config(id: NodeId, cfg: std::sync::Arc<Config>) -> Self {
        assert!((id.get() as usize) <= cfg.n, "node {id} outside 1..={}", cfg.n);
        let father = canonical_father(cfg.n, id);
        let is_root = father.is_none();
        OpenCubeNode {
            id,
            cfg,
            token_here: is_root,
            asking: false,
            local: LocalState::Idle,
            father,
            lender: id,
            mandator: None,
            queue: FairQueue::default(),
            current_claim: None,
            local_seq: 0,
            loan: None,
            inert: false,
            fault: None,
        }
    }

    /// Builds all `cfg.n` nodes in canonical initial positions.
    #[must_use]
    pub fn build_all(cfg: Config) -> Vec<OpenCubeNode> {
        let shared = std::sync::Arc::new(cfg);
        NodeId::all(cfg.n).map(|id| OpenCubeNode::with_shared_config(id, shared.clone())).collect()
    }

    // ---- public observers (used by tests, oracles and experiments) ----

    /// The node's current father pointer (`None` when it believes it is
    /// the root).
    #[must_use]
    pub fn father(&self) -> Option<NodeId> {
        self.father
    }

    /// The node's power: `d - 1` while searching at phase `d` (Section 5),
    /// otherwise derived from the father pointer via Prop. 2.1.
    #[must_use]
    pub fn power(&self) -> u32 {
        if let Some(search) = self.search() {
            return search.d.saturating_sub(1);
        }
        match self.father {
            Some(f) => dist(self.id, f) - 1,
            None => self.cfg.pmax(),
        }
    }

    /// `asking_i` — `true` while the node waits for the token or sits in
    /// the critical section.
    #[must_use]
    pub fn is_asking(&self) -> bool {
        self.asking
    }

    /// The mandator this node is currently serving, if any.
    #[must_use]
    pub fn mandator(&self) -> Option<NodeId> {
        self.mandator
    }

    /// `true` if the node currently believes it is the root.
    #[must_use]
    pub fn believes_root(&self) -> bool {
        self.father.is_none() && self.search().is_none()
    }

    /// The configuration this node runs with.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Pre-sizes the fair waiting queue for `cap` queued claims — a pure
    /// capacity hint. The queue holds at most one remote claim per peer
    /// and no slot for a local `enter_cs` call, so `cap = n` makes
    /// steady-state enqueues allocation-free; it is opt-in (benches, the
    /// allocation audit) rather than the default because at Corten scale
    /// an eager `n`-slot queue on all `n` nodes would dwarf the per-node
    /// state the memory diet pays for.
    pub fn reserve_queue(&mut self, cap: usize) {
        self.queue.reserve(cap);
    }

    pub(crate) fn id_inner(&self) -> NodeId {
        self.id
    }

    /// The paper's `asking` precondition, widened to *every* standing
    /// obligation. Under nominal timing `asking` alone implies the rest
    /// (a node in CS, lending, or searching is always asking); the extra
    /// terms keep the node from serving queued work in the degraded states
    /// reachable when timing assumptions are violated.
    pub(crate) fn busy(&self) -> bool {
        self.asking
            || self.in_cs()
            || self.loan.is_some()
            || self.fault.as_deref().is_some_and(FaultState::busy)
    }

    /// The fault-path state, allocated on first use.
    pub(crate) fn fault_mut(&mut self) -> &mut FaultState {
        self.fault.get_or_insert_default()
    }

    /// The highest token epoch witnessed; 0 until one above 0 is.
    pub(crate) fn epoch_seen(&self) -> u64 {
        self.fault.as_deref().map_or(0, |fault| fault.epoch_seen)
    }

    /// The running search, if any.
    pub(crate) fn search(&self) -> Option<&SearchState> {
        Some(&self.fault.as_deref()?.search).filter(|search| search.running())
    }

    pub(crate) fn search_mut(&mut self) -> Option<&mut SearchState> {
        self.search_slot_mut().filter(|search| search.running())
    }

    /// The search slot, running or kept for its buffers.
    pub(crate) fn search_slot_mut(&mut self) -> Option<&mut SearchState> {
        Some(&mut self.fault.as_deref_mut()?.search)
    }

    /// Highest mint ballot granted; 0 until one is.
    pub(crate) fn epoch_promised(&self) -> u64 {
        self.fault.as_deref().map_or(0, |fault| fault.epoch_promised)
    }

    /// The running mint ballot, if any.
    pub(crate) fn mint(&self) -> Option<&MintState> {
        self.fault.as_deref()?.mint.as_ref()
    }

    pub(crate) fn mint_mut(&mut self) -> Option<&mut MintState> {
        self.fault.as_deref_mut()?.mint.as_mut()
    }

    /// Ends the running ballot, if any, and returns it. Allocates nothing
    /// on a node that never took the fault path.
    pub(crate) fn take_mint(&mut self) -> Option<MintState> {
        self.fault.as_deref_mut()?.mint.take()
    }

    pub(crate) fn fault_tolerant(&self) -> bool {
        self.cfg.fault_tolerance
    }

    pub(crate) fn config_inner(&self) -> Config {
        *self.cfg
    }

    pub(crate) fn mandator_inner(&self) -> Option<NodeId> {
        self.mandator
    }

    pub(crate) fn token_here_inner(&self) -> bool {
        self.token_here
    }

    pub(crate) fn set_father(&mut self, father: Option<NodeId>) {
        self.father = father;
    }

    /// `true` while the pending claim is the one the last search re-sent
    /// to `father` (see [`SearchState::claim_resent`]).
    pub(crate) fn claim_resent(&self) -> bool {
        self.fault.as_deref().is_some_and(|fault| fault.search.claim_resent)
    }

    /// Forgets that the pending claim was re-sent, at a claim start.
    /// Allocates nothing on a node that never searched.
    fn clear_claim_resent(&mut self) {
        if let Some(search) = self.search_slot_mut() {
            search.claim_resent = false;
        }
    }

    // ---- local request path ----

    /// Handles the application's `enter_cs` call once the precondition
    /// `not asking` holds (otherwise the call sits in the queue).
    fn process_local_request(&mut self, out: &mut Outbox<Msg>) {
        debug_assert!(!self.busy());
        if self.lost_root_self_heal(Work::Local, out) {
            return;
        }
        self.asking = true;
        self.local_seq += 1;
        let seq = self.local_seq;
        if self.token_here {
            // We are the root holding the token: enter directly.
            self.local = LocalState::InCs;
            self.lender = self.id;
            out.enter_cs();
        } else {
            self.local = LocalState::Waiting;
            self.mandator = Some(self.id);
            self.current_claim = Some((self.id, seq));
            self.clear_claim_resent();
            let father = self.father.expect("a non-root node without the token has a father");
            out.send(father, self.id_request(seq));
            self.arm_token_wait(out);
        }
    }

    fn id_request(&self, seq: u32) -> Msg {
        let epoch = self.epoch_seen();
        Msg::Request { claimant: self.id, source: self.id, source_seq: seq, epoch }
    }

    // ---- remote request path ----

    /// Handles an incoming `request` message (possibly from the queue).
    pub(crate) fn process_request(
        &mut self,
        claimant: NodeId,
        source: NodeId,
        source_seq: u32,
        out: &mut Outbox<Msg>,
    ) {
        debug_assert!(!self.busy());
        if self.lost_root_self_heal(Work::Remote { claimant, source, source_seq }, out) {
            return;
        }
        let d = dist(self.id, claimant);
        let p = self.power();
        if d > p {
            // Section 5: anomaly — we cannot be an ancestor of the
            // claimant (possible after our recovery as a leaf).
            out.send(claimant, Msg::Anomaly);
            return;
        }
        if d == p {
            // Transit behavior: the request came over a boundary edge (the
            // claimant's branch passes through our last son).
            if self.token_here {
                if self.cfg.mutation != crate::config::Mutation::KeepTokenOnTransit {
                    self.token_here = false;
                }
                out.send(claimant, Msg::Token { lender: None, epoch: self.epoch_seen() });
            } else {
                let father = self.father.expect("a transit node without the token has a father");
                out.send(
                    father,
                    Msg::Request { claimant, source, source_seq, epoch: self.epoch_seen() },
                );
            }
            // First half of the b-transformation.
            self.father = Some(claimant);
        } else {
            // Proxy behavior: request the token on the claimant's account.
            self.asking = true;
            if self.token_here {
                // Temporarily lend the token.
                self.token_here = false;
                out.send(claimant, Msg::Token { lender: Some(self.id), epoch: self.epoch_seen() });
                self.start_loan(claimant, source, source_seq, out);
            } else {
                self.mandator = Some(claimant);
                self.current_claim = Some((source, source_seq));
                self.clear_claim_resent();
                let epoch = self.epoch_seen();
                let father = self.father.expect("a proxy node without the token has a father");
                out.send(father, Msg::Request { claimant: self.id, source, source_seq, epoch });
                self.arm_token_wait(out);
            }
        }
    }

    fn enqueue_remote(&mut self, claimant: NodeId, source: NodeId, source_seq: u32) {
        // Duplicate suppression: regeneration races (Section 5) can re-send
        // a claim that is already queued here or already our mandate.
        if self.mandator == Some(claimant) {
            return;
        }
        if !self.queue.has_claimant(claimant) {
            self.queue.push_back(Work::Remote { claimant, source, source_seq });
        }
    }

    // ---- token path ----

    /// Applies epoch evidence gossiped on a request or stamped on a token
    /// (`Hardening::Quorum` fencing): a strictly higher epoch proves a
    /// newer token was minted, so any token held here is stale and gets
    /// voided in place — even mid-CS (`exit_cs` already guards the lender
    /// return on `token_here`). No-op under `Hardening::None`, where every
    /// epoch is 0.
    pub(crate) fn witness_epoch(&mut self, epoch: u64, out: &mut Outbox<Msg>) {
        if epoch > self.epoch_seen() {
            let fault = self.fault_mut();
            fault.epoch_seen = epoch;
            fault.epoch_promised = fault.epoch_promised.max(epoch);
            if self.token_here {
                self.token_here = false;
                out.count(Counter::EpochDiscards);
            }
        }
    }

    fn on_token(
        &mut self,
        from: NodeId,
        lender: Option<NodeId>,
        epoch: u64,
        out: &mut Outbox<Msg>,
    ) {
        // A token ahead of us updates our horizon (voiding any stale token
        // we still held); a token *behind* us is itself stale — fenced out
        // by a mint we already witnessed — and is discarded on receipt.
        // Whoever is waiting on it recovers through the ordinary suspicion
        // machinery (token-wait timer, search), which ends at the
        // current-epoch token or a quorum-gated mint.
        self.witness_epoch(epoch, out);
        if epoch < self.epoch_seen() {
            out.count(Counter::EpochDiscards);
            return;
        }
        self.cancel_token_wait(out);
        self.abort_search_for_token(out);
        self.abort_mint_for_token(out);
        self.token_here = true;
        match (self.mandator, lender) {
            (None, _) => self.on_token_without_mandate(lender, out),
            // `token(nil)`: we become the root and serve the claim.
            (Some(_), None) => self.serve_as_root(out),
            (Some(m), Some(j)) if m == self.id => {
                // Our own claim is satisfied with a loaned token: enter
                // the critical section.
                self.lender = j;
                self.father = Some(from);
                self.mandator = None;
                self.current_claim = None;
                self.local = LocalState::InCs;
                out.enter_cs();
                // asking remains true until exit_cs.
            }
            (Some(m), Some(j)) => {
                // Pass the loaned token along to the mandator.
                self.father = Some(from);
                self.token_here = false;
                out.send(m, Msg::Token { lender: Some(j), epoch: self.epoch_seen() });
                self.mandator = None;
                self.current_claim = None;
                self.asking = false;
                self.process_queue(out);
            }
        }
    }

    fn on_token_without_mandate(&mut self, lender: Option<NodeId>, out: &mut Outbox<Msg>) {
        if self.loan.take().is_some() {
            // Return of the token after a loan we made.
            self.cancel_loan_timers(out);
            self.serve_as_root(out);
        } else if let Some(j) = lender {
            // Unsolicited loaned token (regeneration race): hand it back so
            // the lender's accounting settles.
            self.token_here = false;
            out.send(j, Msg::Token { lender: None, epoch: self.epoch_seen() });
        } else {
            // Unsolicited ownership transfer (regeneration race): accept it
            // — we are now the root.
            self.serve_as_root(out);
        }
    }

    fn exit_cs(&mut self, out: &mut Outbox<Msg>) {
        debug_assert!(self.in_cs());
        self.local = LocalState::Idle;
        // `token_here` is true in every nominal execution; it can be false
        // only in the degraded regimes where a duplicate token was absorbed
        // while we sat in the critical section.
        if self.lender != self.id && self.token_here {
            self.token_here = false;
            out.send(self.lender, Msg::Token { lender: None, epoch: self.epoch_seen() });
        }
        self.asking = false;
        self.process_queue(out);
    }

    // ---- the fair queue ----

    /// Serves queued work until the node becomes busy again (a proxy claim
    /// or a local claim makes it `asking`; transit work keeps draining).
    pub(crate) fn process_queue(&mut self, out: &mut Outbox<Msg>) {
        while !self.busy() {
            let Some(work) = self.queue.pop_front() else {
                return;
            };
            match work {
                Work::Local => self.process_local_request(out),
                Work::Remote { claimant, source, source_seq } => {
                    self.process_request(claimant, source, source_seq, out);
                }
            }
        }
    }

    // ---- loan + timer plumbing shared with enquiry.rs / search.rs ----

    pub(crate) fn start_loan(
        &mut self,
        claimant: NodeId,
        source: NodeId,
        source_seq: u32,
        out: &mut Outbox<Msg>,
    ) {
        let direct = claimant == source;
        self.loan = Some(Loan {
            claimant,
            source,
            source_seq,
            direct,
            returned_once: false,
            enquiry_outstanding: false,
        });
        if self.cfg.fault_tolerance {
            let timeout = if direct {
                self.cfg.loan_timeout_direct()
            } else {
                self.cfg.loan_timeout_via_proxies()
            };
            out.set_timer(TIMER_ROOT_LOAN, timeout);
        }
    }

    pub(crate) fn arm_token_wait(&mut self, out: &mut Outbox<Msg>) {
        if self.cfg.fault_tolerance {
            out.set_timer(TIMER_TOKEN_WAIT, self.cfg.token_wait_timeout());
        }
    }

    fn cancel_token_wait(&mut self, out: &mut Outbox<Msg>) {
        if self.cfg.fault_tolerance {
            out.cancel_timer(TIMER_TOKEN_WAIT);
        }
    }

    pub(crate) fn cancel_loan_timers(&mut self, out: &mut Outbox<Msg>) {
        if self.cfg.fault_tolerance {
            out.cancel_timer(TIMER_ROOT_LOAN);
            out.cancel_timer(TIMER_ENQUIRY);
        }
    }

    /// The root step: the rule of Section 3 for a node that receives
    /// `token(nil)`, which Section 5's regenerations end in too. The node
    /// becomes the root (`father := nil`), regenerates the token if none is
    /// here (`lender := self`), then serves: its own claim by entering the
    /// critical section, its mandator's claim by lending the token (the
    /// loan keeps it asking until the token returns), or else its queue.
    pub(crate) fn serve_as_root(&mut self, out: &mut Outbox<Msg>) {
        self.father = None;
        if !self.token_here {
            self.token_here = true;
            self.lender = self.id;
            out.count(Counter::TokensRegenerated);
        }
        match self.mandator {
            None => {
                self.asking = false;
                self.lender = self.id;
                self.process_queue(out);
            }
            Some(m) if m == self.id => {
                self.lender = self.id;
                self.mandator = None;
                self.current_claim = None;
                self.local = LocalState::InCs;
                out.enter_cs();
                // asking remains true until exit_cs.
            }
            Some(m) => {
                self.token_here = false;
                out.send(m, Msg::Token { lender: Some(self.id), epoch: self.epoch_seen() });
                let (source, seq) =
                    self.current_claim.take().expect("a mandate has claim bookkeeping");
                self.mandator = None;
                self.start_loan(m, source, seq, out);
                // asking remains true until the token returns.
            }
        }
    }

    /// Claim bookkeeping accessors for search.rs.
    pub(crate) fn current_claim_inner(&self) -> Option<(NodeId, u32)> {
        self.current_claim
    }

    pub(crate) fn local_claim_status(&self, seq: u32) -> crate::message::EnquiryStatus {
        use crate::message::EnquiryStatus;
        match self.local {
            LocalState::InCs if seq == self.local_seq => EnquiryStatus::StillInCs,
            LocalState::Waiting if seq == self.local_seq => EnquiryStatus::TokenLost,
            _ => EnquiryStatus::TokenReturned,
        }
    }

    /// Cancels an in-progress search because the token arrived — the
    /// suspicion was ill-founded or resolved elsewhere.
    pub(crate) fn abort_search_for_token(&mut self, out: &mut Outbox<Msg>) {
        if self.search().is_some() {
            self.end_search();
            out.cancel_timer(TIMER_SEARCH_PHASE);
        }
    }

    /// Detects the *lost root* desynchronization: the node believes it is
    /// the root (`father = nil`) but holds no token and supervises no loan.
    ///
    /// Unreachable under the paper's timing assumptions; reachable when
    /// suspicion timeouts fire spuriously (timing assumptions violated, see
    /// `Config::contention_slack`) and regeneration races shuffle roles.
    /// Rather than wedging, the node re-queues the work and re-joins via
    /// `search_father`, exactly like a recovering node. Returns `true` if
    /// healing was initiated (the work will be re-served afterwards).
    fn lost_root_self_heal(&mut self, work: Work, out: &mut Outbox<Msg>) -> bool {
        if self.father.is_some() || self.token_here || self.loan.is_some() {
            return false;
        }
        if !self.cfg.fault_tolerance {
            panic!(
                "node {} lost the root position without fault tolerance — \
                 this is a protocol bug, not a timing artifact",
                self.id
            );
        }
        self.queue.push_front(work);
        self.start_search(1, out);
        true
    }
}

/// How many `counter` counts `actions` carry.
#[cfg(test)]
pub(crate) fn counted(actions: &[oc_sim::Action<Msg>], counter: Counter) -> usize {
    actions.iter().filter(|a| matches!(a, oc_sim::Action::Count(c) if *c == counter)).count()
}

impl Protocol for OpenCubeNode {
    type Msg = Msg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_event(&mut self, event: NodeEvent<Msg>, out: &mut Outbox<Msg>) {
        if self.inert {
            return;
        }
        match event {
            NodeEvent::RequestCs => {
                if self.busy() {
                    self.queue.push_back(Work::Local);
                } else {
                    self.process_local_request(out);
                }
            }
            NodeEvent::ExitCs => {
                if self.in_cs() {
                    self.exit_cs(out);
                }
            }
            NodeEvent::Deliver { from, msg } => match msg {
                Msg::Request { claimant, source, source_seq, epoch } => {
                    // Epoch gossip is applied even to requests we ignore
                    // or queue: fencing must not wait behind the queue.
                    self.witness_epoch(epoch, out);
                    if claimant == self.id {
                        // A stale echo of our own regenerated claim.
                        return;
                    }
                    if self.busy() {
                        self.enqueue_remote(claimant, source, source_seq);
                    } else {
                        self.process_request(claimant, source, source_seq, out);
                    }
                }
                Msg::Token { lender, epoch } => self.on_token(from, lender, epoch, out),
                Msg::Enquiry { source_seq } => self.on_enquiry(from, source_seq, out),
                Msg::EnquiryReply { source_seq, status } => {
                    self.on_enquiry_reply(source_seq, status, out);
                }
                Msg::Test { d } => self.on_test(from, d, out),
                Msg::Answer { kind, d } => self.on_answer(from, kind, d, out),
                Msg::Anomaly => self.on_anomaly(from, out),
                Msg::MintRequest { epoch } => self.on_mint_request(from, epoch, out),
                Msg::MintAck { epoch, granted } => self.on_mint_ack(from, epoch, granted, out),
            },
            NodeEvent::Timer(TIMER_TOKEN_WAIT) => self.on_token_wait_timeout(out),
            NodeEvent::Timer(TIMER_ROOT_LOAN) => self.on_loan_timeout(out),
            NodeEvent::Timer(TIMER_ENQUIRY) => self.on_enquiry_timeout(out),
            NodeEvent::Timer(TIMER_SEARCH_PHASE) => self.on_search_phase_timeout(out),
            NodeEvent::Timer(TIMER_MINT) => self.on_mint_timer(out),
            NodeEvent::Timer(_) => {}
        }
    }

    fn on_crash(&mut self) {
        // Fail-stop: all volatile state is lost. `pmax` and the distance
        // function live in `cfg` — the paper allows them on stable storage.
        self.token_here = false;
        self.asking = false;
        self.local = LocalState::Idle;
        self.father = None;
        self.lender = self.id;
        self.mandator = None;
        self.current_claim = None;
        self.queue.clear();
        self.loan = None;
        // The search's ring buffers are capacity, not protocol state: the
        // recovery search reuses them. The claim it re-sent is gone.
        self.end_search();
        // The running ballot is volatile; the epoch counters are NOT —
        // like pmax and dist they live on stable storage. Forgetting a
        // promise across a crash would let two quorums form for one epoch,
        // and forgetting the witnessed horizon would resurrect fenced
        // tokens.
        self.take_mint();
    }

    fn on_recover(&mut self, out: &mut Outbox<Msg>) {
        if self.cfg.fault_tolerance {
            // Section 5, node recovery: re-join as a leaf by searching for
            // a father from phase 1.
            self.start_search(1, out);
        } else {
            // Recovery is a Section 5 feature; without it the node cannot
            // re-join consistently, so it stays inert.
            self.inert = true;
        }
    }

    fn in_cs(&self) -> bool {
        self.local == LocalState::InCs
    }

    fn holds_token(&self) -> bool {
        self.token_here
    }

    fn is_idle(&self) -> bool {
        !self.asking
            && !self.in_cs()
            && self.queue.is_empty()
            && self.mandator.is_none()
            && self.loan.is_none()
            && !self.fault.as_deref().is_some_and(FaultState::busy)
    }

    fn heap_bytes(&self) -> usize {
        self.queue.heap_bytes()
            + self.fault.as_deref().map_or(0, |fault| {
                std::mem::size_of::<FaultState>()
                    + fault.mint.as_ref().map_or(0, MintState::heap_bytes)
                    + fault.search.pending.heap_bytes()
                    + fault.search.retry.heap_bytes()
            })
    }

    fn token_epoch(&self) -> u64 {
        // Invariant: while `token_here`, the held token's epoch equals
        // `epoch_seen` — a higher-epoch token updates `epoch_seen` on
        // receipt, a lower-epoch one is discarded before being held, and
        // higher gossip voids the held token in the same step it advances
        // `epoch_seen`.
        self.epoch_seen()
    }

    fn quorum_blocked(&self) -> bool {
        // A minter whose first ballot already timed out, or one parked in
        // backoff, is (for now) unable to assemble a quorum. A first
        // ballot still within its 2δ window is deliberately NOT counted:
        // excusing it would also excuse a wedged ballot that never
        // retries.
        self.mint().is_some_and(|m| m.parked || m.attempts > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_sim::{Action, SimDuration};

    fn cfg(n: usize) -> Config {
        Config::without_fault_tolerance(n, SimDuration::from_ticks(10), SimDuration::from_ticks(50))
    }

    fn ft_cfg(n: usize) -> Config {
        Config::new(n, SimDuration::from_ticks(10), SimDuration::from_ticks(50))
    }

    fn deliver(node: &mut OpenCubeNode, from: u32, msg: Msg) -> Vec<Action<Msg>> {
        let mut out = Outbox::new();
        node.on_event(NodeEvent::Deliver { from: NodeId::new(from), msg }, &mut out);
        out.drain()
    }

    fn request_cs(node: &mut OpenCubeNode) -> Vec<Action<Msg>> {
        let mut out = Outbox::new();
        node.on_event(NodeEvent::RequestCs, &mut out);
        out.drain()
    }

    fn exit_cs(node: &mut OpenCubeNode) -> Vec<Action<Msg>> {
        let mut out = Outbox::new();
        node.on_event(NodeEvent::ExitCs, &mut out);
        out.drain()
    }

    /// The node's queued work, in service order.
    fn queued(node: &OpenCubeNode) -> Vec<Work> {
        let mut queue = node.queue.clone();
        std::iter::from_fn(|| queue.pop_front()).collect()
    }

    fn sends(actions: &[Action<Msg>]) -> Vec<(NodeId, Msg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn initial_state_matches_canonical_cube() {
        let nodes = OpenCubeNode::build_all(cfg(16));
        assert!(nodes[0].holds_token());
        assert!(nodes[0].believes_root());
        for node in &nodes[1..] {
            assert!(!node.holds_token());
            assert_eq!(node.father(), canonical_father(16, node.id()), "node {}", node.id());
        }
        assert_eq!(nodes[8].power(), 3); // node 9
    }

    #[test]
    fn root_with_token_enters_directly() {
        let mut root = OpenCubeNode::new(NodeId::new(1), cfg(4));
        let actions = request_cs(&mut root);
        assert!(actions.iter().any(|a| matches!(a, Action::EnterCs)));
        assert!(root.in_cs());
        assert!(root.is_asking());
        // Exiting keeps the token (lender = self).
        let actions = exit_cs(&mut root);
        assert!(sends(&actions).is_empty());
        assert!(root.holds_token());
        assert!(!root.is_asking());
    }

    #[test]
    fn leaf_request_travels_to_father() {
        // Node 2 in the 4-cube requests: sends request(2) to father 1.
        let mut node2 = OpenCubeNode::new(NodeId::new(2), cfg(4));
        let actions = request_cs(&mut node2);
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, NodeId::new(1));
        assert!(matches!(
            s[0].1,
            Msg::Request { claimant, source, .. }
                if claimant == NodeId::new(2) && source == NodeId::new(2)
        ));
        assert!(node2.is_asking());
        assert_eq!(node2.mandator(), Some(NodeId::new(2)));
    }

    #[test]
    fn root_proxy_lends_token_to_non_last_son() {
        // Node 1 (power 2 in the 4-cube) receives request(2): dist(1,2)=1 <
        // power -> proxy; it has the token -> lends token(1) to 2.
        let mut root = OpenCubeNode::new(NodeId::new(1), cfg(4));
        let actions = deliver(
            &mut root,
            2,
            Msg::Request {
                claimant: NodeId::new(2),
                source: NodeId::new(2),
                source_seq: 1,
                epoch: 0,
            },
        );
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, NodeId::new(2));
        assert_eq!(s[0].1, Msg::Token { lender: Some(NodeId::new(1)), epoch: 0 });
        assert!(!root.holds_token());
        assert!(root.is_asking(), "a lending root is busy until the token returns");
        // The tree did not change: proxy behavior.
        assert!(root.believes_root());
    }

    #[test]
    fn root_transit_gives_up_token_to_last_son() {
        // Node 1 (power 2 in the 4-cube) receives request(3): dist(1,3)=2 =
        // power -> transit; sends token(nil) and re-points.
        let mut root = OpenCubeNode::new(NodeId::new(1), cfg(4));
        let actions = deliver(
            &mut root,
            3,
            Msg::Request {
                claimant: NodeId::new(3),
                source: NodeId::new(3),
                source_seq: 1,
                epoch: 0,
            },
        );
        let s = sends(&actions);
        assert_eq!(s, vec![(NodeId::new(3), Msg::Token { lender: None, epoch: 0 })]);
        assert!(!root.holds_token());
        assert!(!root.is_asking(), "transit nodes do not become busy");
        assert_eq!(root.father(), Some(NodeId::new(3)));
        assert_eq!(root.power(), 1, "the root lost one power level");
    }

    #[test]
    fn transit_forwards_and_repoints() {
        // Node 5 in the 16-cube (father 1, power 2) receives request(8)
        // from 7: dist(5,8)=2, dist(5,1)-1=2 -> transit (paper §3.2).
        let mut node5 = OpenCubeNode::new(NodeId::new(5), cfg(16));
        let actions = deliver(
            &mut node5,
            7,
            Msg::Request {
                claimant: NodeId::new(8),
                source: NodeId::new(8),
                source_seq: 1,
                epoch: 0,
            },
        );
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, NodeId::new(1));
        assert!(matches!(s[0].1, Msg::Request { claimant, .. } if claimant == NodeId::new(8)));
        assert_eq!(node5.father(), Some(NodeId::new(8)));
        assert!(!node5.is_asking());
    }

    #[test]
    fn proxy_requests_on_mandators_account() {
        // Node 9 in the 16-cube (father 1, power 3) receives request(10)
        // from 10: dist(9,10)=1 < 3 -> proxy (paper §3.2).
        let mut node9 = OpenCubeNode::new(NodeId::new(9), cfg(16));
        let actions = deliver(
            &mut node9,
            10,
            Msg::Request {
                claimant: NodeId::new(10),
                source: NodeId::new(10),
                source_seq: 1,
                epoch: 0,
            },
        );
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, NodeId::new(1));
        assert!(matches!(
            s[0].1,
            Msg::Request { claimant, source, .. }
                if claimant == NodeId::new(9) && source == NodeId::new(10)
        ));
        assert_eq!(node9.mandator(), Some(NodeId::new(10)));
        assert!(node9.is_asking());
        assert_eq!(node9.father(), Some(NodeId::new(1)), "proxy does not re-point");
    }

    #[test]
    fn busy_node_queues_requests() {
        let mut node9 = OpenCubeNode::new(NodeId::new(9), cfg(16));
        let _ = deliver(
            &mut node9,
            10,
            Msg::Request {
                claimant: NodeId::new(10),
                source: NodeId::new(10),
                source_seq: 1,
                epoch: 0,
            },
        );
        assert!(node9.is_asking());
        // A second request is queued, not processed.
        let actions = deliver(
            &mut node9,
            1,
            Msg::Request {
                claimant: NodeId::new(8),
                source: NodeId::new(8),
                source_seq: 1,
                epoch: 0,
            },
        );
        assert!(sends(&actions).is_empty());
        assert_eq!(queued(&node9).len(), 1);
    }

    #[test]
    fn duplicate_queued_claims_are_suppressed() {
        let mut node9 = OpenCubeNode::new(NodeId::new(9), cfg(16));
        let _ = deliver(
            &mut node9,
            10,
            Msg::Request {
                claimant: NodeId::new(10),
                source: NodeId::new(10),
                source_seq: 1,
                epoch: 0,
            },
        );
        for _ in 0..3 {
            let _ = deliver(
                &mut node9,
                1,
                Msg::Request {
                    claimant: NodeId::new(8),
                    source: NodeId::new(8),
                    source_seq: 1,
                    epoch: 0,
                },
            );
        }
        assert_eq!(queued(&node9).len(), 1, "duplicates of the same claimant collapse");
        // A duplicate of the current mandate is dropped entirely.
        let _ = deliver(
            &mut node9,
            11,
            Msg::Request {
                claimant: NodeId::new(10),
                source: NodeId::new(10),
                source_seq: 1,
                epoch: 0,
            },
        );
        assert_eq!(queued(&node9).len(), 1);
    }

    #[test]
    fn mandate_token_receipt_forwards_loan() {
        // Node 9 proxied for 10; when token(nil) arrives from 1, node 9
        // becomes the lending root: father=nil, token(9) to 10.
        let mut node9 = OpenCubeNode::new(NodeId::new(9), cfg(16));
        let _ = deliver(
            &mut node9,
            10,
            Msg::Request {
                claimant: NodeId::new(10),
                source: NodeId::new(10),
                source_seq: 1,
                epoch: 0,
            },
        );
        let actions = deliver(&mut node9, 1, Msg::Token { lender: None, epoch: 0 });
        let s = sends(&actions);
        assert_eq!(
            s,
            vec![(NodeId::new(10), Msg::Token { lender: Some(NodeId::new(9)), epoch: 0 })]
        );
        assert!(node9.believes_root());
        assert!(node9.is_asking(), "the lender stays busy until the token returns");
        assert!(node9.mandator().is_none());
        assert!(node9.loan.is_some());
    }

    #[test]
    fn borrower_enters_and_returns_token() {
        let mut node10 = OpenCubeNode::new(NodeId::new(10), cfg(16));
        let _ = request_cs(&mut node10); // sends request to 9
        let actions =
            deliver(&mut node10, 9, Msg::Token { lender: Some(NodeId::new(9)), epoch: 0 });
        assert!(actions.iter().any(|a| matches!(a, Action::EnterCs)));
        assert!(node10.in_cs());
        assert_eq!(node10.father(), Some(NodeId::new(9)), "token sender becomes father");
        // On exit the token goes back to the lender.
        let actions = exit_cs(&mut node10);
        let s = sends(&actions);
        assert_eq!(s, vec![(NodeId::new(9), Msg::Token { lender: None, epoch: 0 })]);
        assert!(!node10.holds_token());
        assert!(!node10.is_asking());
    }

    #[test]
    fn lender_accepts_return_and_serves_queue() {
        let mut node9 = OpenCubeNode::new(NodeId::new(9), cfg(16));
        let _ = deliver(
            &mut node9,
            10,
            Msg::Request {
                claimant: NodeId::new(10),
                source: NodeId::new(10),
                source_seq: 1,
                epoch: 0,
            },
        );
        let _ = deliver(&mut node9, 1, Msg::Token { lender: None, epoch: 0 }); // lends to 10

        // Queue request(8) while busy (paper §3.2: request(8) is queued at 9).
        let _ = deliver(
            &mut node9,
            1,
            Msg::Request {
                claimant: NodeId::new(8),
                source: NodeId::new(8),
                source_seq: 1,
                epoch: 0,
            },
        );
        // Token returns; node 9 serves the queued request(8): dist(9,8)=4 =
        // power(9)=pmax -> transit: token(nil) to 8.
        let actions = deliver(&mut node9, 10, Msg::Token { lender: None, epoch: 0 });
        let s = sends(&actions);
        assert_eq!(s, vec![(NodeId::new(8), Msg::Token { lender: None, epoch: 0 })]);
        assert_eq!(node9.father(), Some(NodeId::new(8)));
        assert!(!node9.is_asking());
    }

    #[test]
    fn request_from_self_is_ignored() {
        let mut node = OpenCubeNode::new(NodeId::new(3), cfg(4));
        let actions = deliver(
            &mut node,
            1,
            Msg::Request {
                claimant: NodeId::new(3),
                source: NodeId::new(3),
                source_seq: 1,
                epoch: 0,
            },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn anomalous_request_is_bounced() {
        // Force node 3 to look like a leaf (father = 4 at distance 1 ->
        // power 0), then deliver a request from "descendant" 1 at distance
        // 2 > 0: anomaly.
        let mut node3 = OpenCubeNode::new(NodeId::new(3), cfg(4));
        node3.set_father(Some(NodeId::new(4)));
        let actions = deliver(
            &mut node3,
            1,
            Msg::Request {
                claimant: NodeId::new(1),
                source: NodeId::new(1),
                source_seq: 1,
                epoch: 0,
            },
        );
        let s = sends(&actions);
        assert_eq!(s, vec![(NodeId::new(1), Msg::Anomaly)]);
    }

    #[test]
    fn local_request_queued_while_busy() {
        let mut node9 = OpenCubeNode::new(NodeId::new(9), cfg(16));
        let _ = deliver(
            &mut node9,
            10,
            Msg::Request {
                claimant: NodeId::new(10),
                source: NodeId::new(10),
                source_seq: 1,
                epoch: 0,
            },
        );
        let actions = request_cs(&mut node9);
        assert!(actions.is_empty());
        assert_eq!(queued(&node9), vec![Work::Local]);
    }

    #[test]
    fn crash_wipes_volatile_state() {
        let mut node = OpenCubeNode::new(NodeId::new(1), cfg(4));
        let _ = request_cs(&mut node);
        assert!(node.in_cs());
        node.on_crash();
        assert!(!node.holds_token());
        assert!(!node.in_cs());
        assert!(!node.is_asking());
        assert!(node.queue.is_empty());
    }

    #[test]
    fn recovery_without_fault_tolerance_goes_inert() {
        let mut node = OpenCubeNode::new(NodeId::new(2), cfg(4));
        node.on_crash();
        let mut out = Outbox::new();
        node.on_recover(&mut out);
        assert!(out.is_empty());
        // Inert: all further events are ignored.
        let actions = request_cs(&mut node);
        assert!(actions.is_empty());
        assert!(!node.is_asking());
    }

    #[test]
    fn unsolicited_loaned_token_is_returned() {
        let mut node = OpenCubeNode::new(NodeId::new(2), cfg(4));
        let actions = deliver(&mut node, 1, Msg::Token { lender: Some(NodeId::new(1)), epoch: 0 });
        let s = sends(&actions);
        assert_eq!(s, vec![(NodeId::new(1), Msg::Token { lender: None, epoch: 0 })]);
        assert!(!node.holds_token());
    }

    #[test]
    fn keep_token_on_transit_mutation_duplicates_the_token() {
        // The planted safety bug: a transit node sends token(nil) to its
        // last son but also keeps it.
        let cfg = crate::config::Config {
            mutation: crate::config::Mutation::KeepTokenOnTransit,
            ..cfg(4)
        };
        let mut root = OpenCubeNode::new(NodeId::new(1), cfg);
        let actions = deliver(
            &mut root,
            3,
            Msg::Request {
                claimant: NodeId::new(3),
                source: NodeId::new(3),
                source_seq: 1,
                epoch: 0,
            },
        );
        let s = sends(&actions);
        assert_eq!(s, vec![(NodeId::new(3), Msg::Token { lender: None, epoch: 0 })]);
        assert!(root.holds_token(), "mutation: the token was sent AND kept");
    }

    #[test]
    fn fault_state_is_allocated_on_first_use_counted_and_kept_across_crashes() {
        // A fault-free claim, served, allocates no fault state.
        let mut node = OpenCubeNode::new(NodeId::new(10), cfg(16));
        let _ = request_cs(&mut node);
        let _ = deliver(&mut node, 9, Msg::Token { lender: Some(NodeId::new(9)), epoch: 0 });
        let _ = exit_cs(&mut node);
        assert!(node.fault.is_none());
        assert_eq!(node.heap_bytes(), 0);

        // A suspicion timeout starts a search, counted through the outbox;
        // its ring buffers live in the box.
        let mut node = OpenCubeNode::new(NodeId::new(10), ft_cfg(16));
        let _ = request_cs(&mut node);
        assert!(node.fault.is_none(), "arming a timer is not the fault path");
        let mut out = Outbox::new();
        node.on_event(NodeEvent::Timer(TIMER_TOKEN_WAIT), &mut out);
        assert_eq!(counted(&out.drain(), Counter::SearchesStarted), 1);
        assert!(node.heap_bytes() >= size_of::<FaultState>());

        // The promise is stable storage, so the box survives a crash; the
        // search's buffers are kept for the recovery search to reuse.
        node.on_crash();
        let kept = |node: &OpenCubeNode| node.fault.as_deref().unwrap().search.pending.heap_bytes();
        assert!(node.search().is_none() && kept(&node) > 0);
        node.on_recover(&mut out);
        assert!(node.search().is_some(), "recovery reuses it");
    }

    #[test]
    fn a_crash_mid_search_ends_it_and_recovery_reuses_its_buffers() {
        // Node 10 of 1 024 suspects the loss of its claim's token and
        // searches; silent rings widen the search to ring 10, whose 512
        // members take eight words per ring set.
        let mut node = OpenCubeNode::new(NodeId::new(10), ft_cfg(1024));
        let _ = request_cs(&mut node);
        let mut out = Outbox::new();
        node.on_event(NodeEvent::Timer(TIMER_TOKEN_WAIT), &mut out);
        while node.search().unwrap().d < 10 {
            node.on_event(NodeEvent::Timer(TIMER_SEARCH_PHASE), &mut out);
        }
        let slot = |node: &OpenCubeNode| std::ptr::from_ref(&node.fault.as_deref().unwrap().search);
        let (buffers, bytes) = (slot(&node), node.heap_bytes());
        assert!(bytes >= size_of::<FaultState>() + 2 * 8 * 8);

        node.on_crash();
        assert!(node.search().is_none(), "a crash ends the search");
        assert!(!node.busy() && node.is_idle());
        assert_eq!((slot(&node), node.heap_bytes()), (buffers, bytes), "and keeps its buffers");

        // Recovery searches from ring 1, in the same buffers.
        let _ = out.drain();
        node.on_recover(&mut out);
        let actions = out.drain();
        assert_eq!(node.search().map(|search| (search.d, search.start)), Some((1, 1)));
        assert_eq!(sends(&actions), vec![(NodeId::new(9), Msg::Test { d: 1 })]);
        assert_eq!((slot(&node), node.heap_bytes()), (buffers, bytes), "and allocates nothing");
    }

    #[test]
    fn counting_alone_allocates_no_fault_state() {
        // Leaf 16 (power 0) cannot be an ancestor of claimant 15: it
        // bounces the claim as an anomaly, which counts as an anomaly send.
        let mut leaf = OpenCubeNode::new(NodeId::new(16), ft_cfg(16));
        let claim = Msg::Request {
            claimant: NodeId::new(15),
            source: NodeId::new(15),
            source_seq: 1,
            epoch: 0,
        };
        let actions = deliver(&mut leaf, 15, claim);
        assert_eq!(sends(&actions), vec![(NodeId::new(15), Msg::Anomaly)]);
        assert!(leaf.fault.is_none(), "an anomaly bounce is counted by its send");

        // The root lends the token, the loan times out, and it enquires.
        let mut root = OpenCubeNode::new(NodeId::new(1), ft_cfg(4));
        let claim = Msg::Request {
            claimant: NodeId::new(2),
            source: NodeId::new(2),
            source_seq: 7,
            epoch: 0,
        };
        let _ = deliver(&mut root, 2, claim);
        let mut out = Outbox::new();
        root.on_event(NodeEvent::Timer(TIMER_ROOT_LOAN), &mut out);
        assert_eq!(sends(&out.drain()), vec![(NodeId::new(2), Msg::Enquiry { source_seq: 7 })]);
        assert!(root.fault.is_none(), "an enquiry is counted by its send");
        assert_eq!(root.heap_bytes() + leaf.heap_bytes(), 0);
    }

    #[test]
    fn is_idle_reflects_obligations() {
        let mut node = OpenCubeNode::new(NodeId::new(2), cfg(4));
        assert!(node.is_idle());
        let _ = request_cs(&mut node);
        assert!(!node.is_idle());
    }
}
