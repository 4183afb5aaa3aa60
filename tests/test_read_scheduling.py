"""Read scheduling against the designs' original per-request steering.

Each design policy states its replica candidates once per request and
one rule (:func:`repro.mem_ctrl.policy.serve_replica`) picks among them
from live row-buffer state.  The oracles below are the per-policy
``read_rank`` bodies and the FR-FCFS scan loop that re-resolved every
queued request through them; the rule, the scan and the issue path
must agree with them exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.core.policies import FmrPolicy, HeteroDMRPolicy, HeteroFmrPolicy
from repro.dram.channel import Channel
from repro.dram.module import Module, ModuleSpec
from repro.mem_ctrl.address_map import AddressMapping, MemLocation
from repro.mem_ctrl.controller import ChannelController
from repro.mem_ctrl.page_policy import PagePolicy
from repro.mem_ctrl.policy import AccessPolicy, serve_replica
from repro.mem_ctrl.queues import ReadRequest
from repro.mem_ctrl.scheduler import FrFcfsScheduler, SchedulerStats
from repro.sim.engine import EventLoop

TIMEOUT_NS = PagePolicy().timeout_ns
NOW_NS = 10_000.0


# -- oracle: the designs' original read steering ---------------------------------

def _free_rank_base(policy, channel):
    return sum(len(m.ranks)
               for m in channel.modules[:policy.free_module_index])


def _pick_replica(channel, candidates, bank_idx, row):
    pairs = channel.all_ranks()
    for flat in candidates:
        if pairs[flat][1].banks[bank_idx].open_row == row:
            return flat
    for flat in candidates:
        if pairs[flat][1].banks[bank_idx].open_row is None:
            return flat
    return min(candidates,
               key=lambda f: pairs[f][1].banks[bank_idx].column_ready_ns)


def _baseline_rank(policy, channel, request):
    return request.location.rank % channel.rank_count()


def _fmr_rank(policy, channel, request):
    nranks = channel.rank_count()
    base = request.location.rank % nranks
    partner = (base + nranks // 2) % nranks
    row, bank_idx = request.location.row, request.location.bank
    return _pick_replica(channel, (base, partner), bank_idx, row)


def _hdmr_rank(policy, channel, request):
    free = channel.modules[policy.free_module_index]
    nfree = len(free.ranks)
    return _free_rank_base(policy, channel) + request.location.rank % nfree


def _hfmr_rank(policy, channel, request):
    free = channel.modules[policy.free_module_index]
    base = _free_rank_base(policy, channel)
    nfree = len(free.ranks)
    fixed = base + request.location.rank % nfree
    row, bank_idx = request.location.row, request.location.bank
    pairs = channel.all_ranks()
    for flat in (fixed, base + (fixed - base + 1) % nfree):
        if pairs[flat][1].banks[bank_idx].open_row == row:
            return flat
    return fixed


DESIGNS = {
    "baseline": (AccessPolicy, _baseline_rank),
    "fmr": (FmrPolicy, _fmr_rank),
    "hetero-dmr": (HeteroDMRPolicy, _hdmr_rank),
    "hetero-dmr+fmr": (HeteroFmrPolicy, _hfmr_rank),
}


def _old_apply(page, bank, now_ns):
    """The page policy's original kind-branching close."""
    if bank.open_row is None:
        return
    if page.kind == "hybrid":
        if now_ns - bank.last_access_ns > page.timeout_ns:
            bank.open_row = None
    elif page.kind == "closed":
        bank.open_row = None


class _ReferenceScheduler:
    """The FR-FCFS scan that resolved every candidate through
    ``rank_of`` (None for the identity baseline)."""

    def __init__(self, page, fairness_cap, scan_window):
        self.page = page
        self.fairness_cap = fairness_cap
        self.scan_window = scan_window
        self._last_bank = None
        self._streak = 0
        self.stats = SchedulerStats()

    def pick(self, queue, channel, now_ns, rank_of=None):
        if not queue:
            return None
        hit_idx = None
        oldest_idx = 0
        prefetch_hit_idx = None
        other_rank_hit_idx = None
        bus_rank = channel._last_bus_rank
        pairs = channel.all_ranks()
        nranks = len(pairs)
        for i in range(min(len(queue), self.scan_window)):
            req = queue[i]
            loc = req.location
            flat_rank = rank_of(req) if rank_of is not None \
                else loc.rank % nranks
            rank = pairs[flat_rank][1]
            bank = rank.banks[loc.bank]
            _old_apply(self.page, bank, now_ns)
            if bank.open_row == loc.row:
                if req.is_prefetch:
                    if prefetch_hit_idx is None:
                        prefetch_hit_idx = i
                    continue
                if bus_rank is None or rank is bus_rank:
                    hit_idx = i
                    break
                if other_rank_hit_idx is None:
                    other_rank_hit_idx = i
        if hit_idx is None:
            hit_idx = other_rank_hit_idx
        if hit_idx is None:
            hit_idx = prefetch_hit_idx
        if hit_idx is not None:
            req = queue[hit_idx]
            flat_rank = rank_of(req) if rank_of is not None \
                else req.location.rank % nranks
            key = (flat_rank, req.location.bank)
            if key == self._last_bank and self._streak >= self.fairness_cap:
                self.stats.fairness_overrides += 1
                self._note(queue[oldest_idx], rank_of, nranks)
                self.stats.oldest_picks += 1
                return oldest_idx
            self._streak = self._streak + 1 if key == self._last_bank else 1
            self._last_bank = key
            self.stats.row_hit_picks += 1
            return hit_idx
        self._note(queue[oldest_idx], rank_of, nranks)
        self.stats.oldest_picks += 1
        return oldest_idx

    def _note(self, req, rank_of, nranks):
        flat_rank = rank_of(req) if rank_of is not None \
            else req.location.rank % nranks
        key = (flat_rank, req.location.bank)
        if key == self._last_bank:
            self._streak += 1
        else:
            self._last_bank, self._streak = key, 1


# -- random channel state ---------------------------------------------------------

BANKS = 3
ROWS = 3

_bank_state = st.tuples(
    st.sampled_from([None] + list(range(ROWS))),            # open_row
    st.sampled_from([0.0, 1.0, TIMEOUT_NS - 1.0, TIMEOUT_NS,  # idle time
                     TIMEOUT_NS + 1.0, 10 * TIMEOUT_NS]),
    st.sampled_from([0.0, 5.0, 10.0]))                       # column ready


@st.composite
def _channels(draw):
    ranks_per_module = draw(st.sampled_from([1, 2, 4]))
    states = draw(st.lists(_bank_state, min_size=2 * ranks_per_module * BANKS,
                           max_size=2 * ranks_per_module * BANKS))
    bus = draw(st.one_of(st.none(),
                         st.integers(0, 2 * ranks_per_module - 1)))
    return ranks_per_module, states, bus


def _build(spec):
    """A two-module channel (module 1 is the Free Module) with the drawn
    row-buffer state in banks 0..BANKS-1 of every rank."""
    ranks_per_module, states, bus = spec
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(ranks_per_module=ranks_per_module), m)
                  for m in ("M0", "M1")]
    it = iter(states)
    for _, rank in ch.all_ranks():
        for b in range(BANKS):
            open_row, idle, ready = next(it)
            bank = rank.banks[b]
            bank.open_row = open_row
            bank.last_access_ns = NOW_NS - idle
            bank.column_ready_ns = ready
    if bus is not None:
        ch._last_bus_rank = ch.all_ranks()[bus][1]
    return ch


def _bank_states(ch):
    return [(b.open_row, b.last_access_ns, b.column_ready_ns,
             b.precharge_ready_ns, b.activate_ready_ns)
            for _, rank in ch.all_ranks() for b in rank.banks]


def _req(local_rank, bank, row, prefetch=False):
    return ReadRequest(MemLocation(0, local_rank, bank, row, 0), 0.0,
                       lambda t: None, is_prefetch=prefetch)


# -- the replica rule ----------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(spec=_channels(), design=st.sampled_from(sorted(DESIGNS)),
       local_rank=st.integers(0, 7), bank=st.integers(0, BANKS - 1),
       row=st.integers(0, ROWS - 1))
def test_replica_rule_matches_read_rank_oracle(spec, design, local_rank,
                                               bank, row):
    ch = _build(spec)
    make, oracle = DESIGNS[design]
    policy = make()
    req = _req(local_rank, bank, row)
    expected = oracle(policy, ch, req)
    cands = policy.replica_banks(ch, local_rank, bank)
    flat, rank, bank_obj = serve_replica(cands, row,
                                         policy.prefer_closed_replica)
    assert flat == expected
    assert ch.locate_rank(flat)[1] is rank
    assert rank.banks[bank] is bank_obj


def test_replica_candidates_home_copy_first():
    ch = _build((2, [(None, 0.0, 0.0)] * (4 * BANKS), None))
    assert AccessPolicy().read_candidates(ch, 5) == (1,)
    assert FmrPolicy().read_candidates(ch, 1) == (1, 3)
    assert HeteroDMRPolicy().read_candidates(ch, 1) == (3,)
    assert HeteroFmrPolicy().read_candidates(ch, 1) == (3, 2)


@settings(max_examples=60, deadline=None)
@given(spec=_channels(), design=st.sampled_from(sorted(DESIGNS)),
       kind=st.sampled_from(["open", "closed", "hybrid"]),
       bank=st.integers(0, BANKS - 1), now=st.sampled_from(
           [NOW_NS - 1.0, NOW_NS, NOW_NS + TIMEOUT_NS]))
def test_page_rule_matches_kind_branches(spec, design, kind, bank, now):
    page = PagePolicy(kind=kind)
    new, old = _build(spec), _build(spec)
    for (_, rn), (_, ro) in zip(new.all_ranks(), old.all_ranks()):
        page.apply(rn.banks[bank], now)
        _old_apply(page, ro.banks[bank], now)
    assert _bank_states(new) == _bank_states(old)


# -- the scan and the issue path ---------------------------------------------------

_queue = st.lists(st.tuples(st.integers(0, 7), st.integers(0, BANKS - 1),
                            st.integers(0, ROWS - 1), st.booleans()),
                  min_size=1, max_size=24)


@settings(max_examples=300, deadline=None)
@given(spec=_channels(), design=st.sampled_from(sorted(DESIGNS)),
       kind=st.sampled_from(["open", "closed", "hybrid"]), queue=_queue,
       fairness_cap=st.sampled_from([1, 2, 8]),
       scan_window=st.sampled_from([3, 64]),
       steps=st.lists(st.sampled_from([0.0, 1.0, TIMEOUT_NS + 1.0]),
                      min_size=1, max_size=12))
def test_scan_and_issue_match_reference_loop(spec, design, kind, queue,
                                             fairness_cap, scan_window,
                                             steps):
    page = PagePolicy(kind=kind)
    make, oracle = DESIGNS[design]
    policy = make()
    ch_new, ch_old = _build(spec), _build(spec)
    q_new = [_req(*entry) for entry in queue]
    q_old = [_req(*entry) for entry in queue]
    for req in q_new:
        req.candidates = policy.replica_banks(ch_new, req.location.rank,
                                              req.location.bank)
    new = FrFcfsScheduler(page, fairness_cap=fairness_cap,
                          scan_window=scan_window,
                          prefer_closed_replica=policy.prefer_closed_replica)
    old = _ReferenceScheduler(page, fairness_cap, scan_window)
    rank_of = None if design == "baseline" else \
        (lambda r: oracle(policy, ch_old, r))
    now = NOW_NS
    for step in steps:
        if not q_new:
            break
        now += step
        idx = new.pick(q_new, ch_new, now)
        assert idx == old.pick(q_old, ch_old, now, rank_of=rank_of)
        assert new.stats == old.stats
        assert (new._last_bank, new._streak) == (old._last_bank, old._streak)
        assert _bank_states(ch_new) == _bank_states(ch_old)
        # Issue both the way their controllers do.
        req_new, req_old = q_new.pop(idx), q_old.pop(idx)
        flat, _, bank = new.serve(req_new)
        flat_old = oracle(policy, ch_old, req_old)
        assert flat == flat_old
        page.apply(bank, now)
        _old_apply(page, ch_old.locate_rank(flat_old)[1]
                   .banks[req_old.location.bank], now)
        loc = req_new.location
        assert ch_new.access(flat, loc.bank, loc.row, now, False) == \
            ch_old.access(flat_old, loc.bank, loc.row, now, False)
        assert _bank_states(ch_new) == _bank_states(ch_old)


# -- issue-time resolution is fresh ----------------------------------------------

def _controller(policy):
    engine = EventLoop()
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(), "M0"), Module(ModuleSpec(), "M1")]
    ctrl = ChannelController(engine, ch,
                             AddressMapping(channels=1, ranks_per_channel=2),
                             policy, enable_refresh=False)
    return engine, ch, ctrl


def _rank_bank(ch, flat):
    return ch.locate_rank(flat)[1].banks[0]


def test_issue_serves_home_copy_when_alternate_row_timed_out():
    """Hetero-DMR+FMR: the alternate copy (flat 3) holds the row, but
    its hybrid timeout has passed.  The scan steers the read there and
    its page-policy close flips the choice back to the home copy
    (flat 2), which must be the copy the read is issued to."""
    engine, ch, ctrl = _controller(HeteroFmrPolicy())
    engine.now = NOW_NS
    home, alt = _rank_bank(ch, 2), _rank_bank(ch, 3)
    home.open_row, home.last_access_ns = 9, NOW_NS
    alt.open_row, alt.last_access_ns = 0, NOW_NS - 2 * TIMEOUT_NS
    ctrl.submit_read(0, NOW_NS, lambda t: None)    # local rank 0, bank 0, row 0
    assert ctrl.stats.reads_issued == 1
    assert ch._last_bus_rank is ch.locate_rank(2)[1]
    assert home.stats.row_conflicts == 1
    assert alt.stats.accesses == 0 and alt.open_row is None
    assert ctrl.scheduler._last_bank == (2, 0)


def test_issue_serves_closed_base_when_partner_row_timed_out():
    """FMR: the partner (flat 2) holds the row past its timeout while the
    base rank's bank is closed.  After the scan closes the partner's row,
    the closed-bank fallback serves the base rank (flat 0)."""
    engine, ch, ctrl = _controller(FmrPolicy())
    engine.now = NOW_NS
    base, partner = _rank_bank(ch, 0), _rank_bank(ch, 2)
    partner.open_row, partner.last_access_ns = 0, NOW_NS - 2 * TIMEOUT_NS
    ctrl.submit_read(0, NOW_NS, lambda t: None)
    assert ch._last_bus_rank is ch.locate_rank(0)[1]
    assert base.stats.row_misses == 1
    assert partner.stats.accesses == 0
    assert ctrl.scheduler._last_bank == (0, 0)
