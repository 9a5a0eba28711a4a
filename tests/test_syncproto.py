from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import random
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereorig import MAX_TIME_MS, syncproto
from stereorig.registry import CapabilityProfile, negotiate
from stereorig.syncproto import (
    TRANSITIONS,
    Message,
    MsgKind,
    Phase,
    SimulatedTransport,
    Simulator,
    TickStamp,
    Timer,
    TranscriptEntry,
    new_session,
    run_capture_sync,
    run_frame_sync,
    run_pairing,
    run_session,
    step,
    transcript_text,
)

from oracles import awaiting_oracle, step_oracle
from profiles import examples

LOSSLESS = SimulatedTransport(base_latency=10.0, jitter=0.0, loss_rate=0.0)

# digest of _sweep_digest, fixed when the transcripts were known good; any
# protocol or simulator change that alters behaviour must change it on purpose
SWEEP_DIGEST = "e6e46b5a7f17d0bd084b9973a5323839258a982beab37100b451e929c57b44a1"


def _configured(endpoint, role, spec, profile, **extra):
    return dataclasses.replace(
        new_session(endpoint, role, spec),
        phase=Phase.CONFIGURED,
        negotiated=profile,
        **extra,
    )


def _capturing(endpoint, role, spec, profile, start=50.0, **extra):
    return dataclasses.replace(
        _configured(endpoint, role, spec, profile, **extra),
        phase=Phase.CAPTURING,
        capture_start=start,
    )


def _chain(spec_a, spec_b, transport, seed=0, offsets=(0.0, 0.0),
           capture_delay=50.0, duration=1000.0):
    return run_session(spec_a, spec_b, transport, seed, offsets,
                       capture_delay=capture_delay, duration=duration)


class TestStepTransitions:
    def test_idle_initiator_start(self, j7):
        s = new_session("A", "initiator", j7)
        s, out = step(s, Timer("start"), 0.0)
        assert s.phase is Phase.PAIRING
        assert [m.kind for m in out] == [MsgKind.PAIR_REQUEST]

    def test_idle_responder_start_is_silent(self, j7):
        s = new_session("B", "responder", j7)
        s, out = step(s, Timer("start"), 0.0)
        assert s.phase is Phase.PAIRING
        assert out == []

    def test_pairing_responder_pair_request(self, j7, a5):
        s = new_session("B", "responder", a5)
        s, _ = step(s, Timer("start"), 0.0)
        s, out = step(s, Message(MsgKind.PAIR_REQUEST, "A"), 10.0)
        assert s.phase is Phase.NEGOTIATING
        assert [m.kind for m in out] == [MsgKind.PAIR_ACCEPT, MsgKind.CAPABILITY_OFFER]
        assert out[1].payload == a5

    def test_pairing_initiator_pair_accept(self, j7):
        s = new_session("A", "initiator", j7)
        s, _ = step(s, Timer("start"), 0.0)
        s, out = step(s, Message(MsgKind.PAIR_ACCEPT, "B"), 20.0)
        assert s.phase is Phase.NEGOTIATING
        assert out == []

    def test_offer_configures_initiator_with_negotiated_profile(self, j7, a5):
        s = new_session("A", "initiator", j7)
        s, _ = step(s, Timer("start"), 0.0)
        s, _ = step(s, Message(MsgKind.PAIR_ACCEPT, "B"), 20.0)
        s, out = step(s, Message(MsgKind.CAPABILITY_OFFER, "B", a5), 21.0)
        assert s.phase is Phase.CONFIGURED
        assert s.negotiated == negotiate(j7, a5)
        assert [m.kind for m in out] == [MsgKind.CAPABILITY_ACK]
        assert out[0].payload == s.negotiated

    def test_ack_configures_responder(self, j7, a5):
        profile = negotiate(j7, a5)
        s = new_session("B", "responder", a5)
        s, _ = step(s, Timer("start"), 0.0)
        s, _ = step(s, Message(MsgKind.PAIR_REQUEST, "A"), 10.0)
        s, out = step(s, Message(MsgKind.CAPABILITY_ACK, "A", profile), 30.0)
        assert s.phase is Phase.CONFIGURED
        assert s.negotiated == profile
        assert out == []

    def test_configured_pair_request_fails(self, j7, a5):
        s = _configured("A", "initiator", j7, negotiate(j7, a5))
        s, out = step(s, Message(MsgKind.PAIR_REQUEST, "B"), 40.0)
        assert s.phase is Phase.FAILED
        assert "unexpected PairRequest" in s.fail_reason
        assert [m.kind for m in out] == [MsgKind.ERROR]

    def test_reordered_offer_before_accept_tolerated(self, j7, a5):
        s = new_session("A", "initiator", j7)
        s, _ = step(s, Timer("start"), 0.0)
        s, out = step(s, Message(MsgKind.CAPABILITY_OFFER, "B", a5), 20.0)
        assert s.phase is Phase.CONFIGURED
        assert [m.kind for m in out] == [MsgKind.CAPABILITY_ACK]
        # the late PairAccept is then a no-op
        s, out = step(s, Message(MsgKind.PAIR_ACCEPT, "B"), 21.0)
        assert s.phase is Phase.CONFIGURED
        assert out == []

    def test_duplicate_offer_reacked(self, j7, a5):
        s = _configured("A", "initiator", j7, negotiate(j7, a5))
        s, out = step(s, Message(MsgKind.CAPABILITY_OFFER, "B", a5), 50.0)
        assert s.phase is Phase.CONFIGURED
        assert [m.kind for m in out] == [MsgKind.CAPABILITY_ACK]

    def test_duplicate_ack_ignored(self, j7, a5):
        profile = negotiate(j7, a5)
        s = _configured("B", "responder", a5, profile)
        s, out = step(s, Message(MsgKind.CAPABILITY_ACK, "A", profile), 50.0)
        assert s.phase is Phase.CONFIGURED
        assert out == []

    def test_overreaching_profile_rejected_by_responder(self, j7, a5):
        too_fast = CapabilityProfile(resolution=(1280, 720), frame_rate=240.0)
        s = dataclasses.replace(
            new_session("B", "responder", j7), phase=Phase.NEGOTIATING
        )
        s, out = step(s, Message(MsgKind.CAPABILITY_ACK, "A", too_fast), 30.0)
        assert s.phase is Phase.FAILED
        assert "exceeds own capabilities" in s.fail_reason
        assert [m.kind for m in out] == [MsgKind.ERROR]

    def test_capture_start_in_future_accepted(self, j7, a5):
        s = _configured("B", "responder", a5, negotiate(j7, a5))
        s, out = step(s, Message(MsgKind.CAPTURE_START, "A", 100.0), 40.0)
        assert s.phase is Phase.CONFIGURED
        assert s.capture_start == 100.0
        assert out == []

    def test_capture_start_in_past_fails(self, j7, a5):
        s = _configured("B", "responder", a5, negotiate(j7, a5))
        s, out = step(s, Message(MsgKind.CAPTURE_START, "A", 30.0), 40.0)
        assert s.phase is Phase.FAILED
        assert s.fail_reason == "start time in past"
        assert [m.kind for m in out] == [MsgKind.ERROR]

    def test_capture_begin_timer_starts_capturing(self, j7, a5):
        s = _configured("A", "initiator", j7, negotiate(j7, a5))
        s = dataclasses.replace(s, capture_start=100.0)
        s, out = step(s, Timer("capture_begin"), 100.0)
        assert s.phase is Phase.CAPTURING
        assert out == []

    def test_tick_due_emits_stateful_timestamp(self, j7, a5):
        profile = negotiate(j7, a5)
        s = _capturing("A", "initiator", j7, profile, start=50.0)
        s, out = step(s, Timer("tick_due"), 50.0)
        assert [m.kind for m in out] == [MsgKind.FRAME_TICK]
        assert out[0].payload == TickStamp(0, 50.0)
        s, out = step(s, Timer("tick_due"), 83.3)
        assert out[0].payload == TickStamp(1, 50.0 + 1000.0 / 30.0)
        assert s.next_tick_seq == 2

    def test_no_tick_before_capturing(self, j7, a5):
        s = _configured("A", "initiator", j7, negotiate(j7, a5))
        s, out = step(s, Timer("tick_due"), 50.0)
        assert out == []
        assert s.phase is Phase.CONFIGURED

    @pytest.mark.parametrize("off", [0.5e-6, -0.5e-6, 2e-6, -2e-6])
    def test_frame_tick_cadence_holds_to_a_microsecond(self, j7, a5, off):
        s = _capturing("B", "responder", a5, negotiate(j7, a5), start=50.0)
        tick = Message(MsgKind.FRAME_TICK, "A", TickStamp(1, 50.0 + 1000.0 / 30.0 + off))
        after, out = step(s, tick, 90.0)
        if abs(off) < 1e-6:
            assert (after, out) == (s, [])
        else:
            assert after.phase is Phase.FAILED
            assert after.fail_reason.startswith("frame cadence mismatch at seq 1: got ")
            assert [m.kind for m in out] == [MsgKind.ERROR]

    def test_frame_tick_cadence_checked(self, j7, a5):
        profile = negotiate(j7, a5)
        s = _capturing("B", "responder", a5, profile, start=50.0)
        good = Message(MsgKind.FRAME_TICK, "A", TickStamp(1, 50.0 + 1000.0 / 30.0))
        s2, out = step(s, good, 90.0)
        assert s2.phase is Phase.CAPTURING
        assert out == []
        bad = Message(MsgKind.FRAME_TICK, "A", TickStamp(1, 90.0))
        s3, out = step(s, bad, 90.0)
        assert s3.phase is Phase.FAILED
        assert "cadence mismatch" in s3.fail_reason
        assert [m.kind for m in out] == [MsgKind.ERROR]

    def test_tick_in_pairing_fails(self, j7):
        s = new_session("B", "responder", j7)
        s, _ = step(s, Timer("start"), 0.0)
        s, out = step(s, Message(MsgKind.FRAME_TICK, "A", TickStamp(0, 0.0)), 5.0)
        assert s.phase is Phase.FAILED

    def test_error_message_fails_peer(self, j7):
        s = new_session("A", "initiator", j7)
        s, _ = step(s, Timer("start"), 0.0)
        s, out = step(s, Message(MsgKind.ERROR, "B", "boom"), 5.0)
        assert s.phase is Phase.FAILED
        assert s.fail_reason == "peer error: boom"
        assert out == []

    def test_failed_absorbs_everything(self, j7):
        s = dataclasses.replace(new_session("A", "initiator", j7),
                                phase=Phase.FAILED, fail_reason="x")
        for event in (Timer("start"), Timer("tick_due"),
                      Message(MsgKind.PAIR_REQUEST, "B")):
            s2, out = step(s, event, 99.0)
            assert s2 is s
            assert out == []

    def test_done_absorbs_all_but_abort(self, j7, a5):
        s = dataclasses.replace(
            _capturing("A", "initiator", j7, negotiate(j7, a5)), phase=Phase.DONE
        )
        s2, out = step(s, Message(MsgKind.FRAME_TICK, "B", TickStamp(5, 0.0)), 99.0)
        assert s2 is s and out == []
        s3, _ = step(s, Timer("abort"), 99.0)
        assert s3.phase is Phase.FAILED

    def test_step_is_pure(self, j7, a5):
        s = new_session("B", "responder", a5)
        s, _ = step(s, Timer("start"), 0.0)
        msg = Message(MsgKind.PAIR_REQUEST, "A")
        r1 = step(s, msg, 10.0)
        r2 = step(s, msg, 10.0)
        assert r1 == r2

    def test_step_rejects_foreign_events(self, j7):
        with pytest.raises(TypeError):
            step(new_session("A", "initiator", j7), "not an event", 0.0)


class TestExhaustiveInterleavings:
    def test_pairing_exchange_with_any_single_reorder(self, j7, a5):
        # The responder's two replies are the only causally swappable pair.
        for offer_first in (False, True):
            a = new_session("A", "initiator", j7)
            b = new_session("B", "responder", a5)
            a, out = step(a, Timer("start"), 0.0)
            (pair_request,) = out
            b, _ = step(b, Timer("start"), 0.0)
            b, replies = step(b, pair_request, 10.0)
            assert [m.kind for m in replies] == [
                MsgKind.PAIR_ACCEPT,
                MsgKind.CAPABILITY_OFFER,
            ]
            order = list(reversed(replies)) if offer_first else list(replies)
            acks = []
            for msg in order:
                a, out = step(a, msg, 20.0)
                acks.extend(out)
            assert a.phase is Phase.CONFIGURED
            assert [m.kind for m in acks] == [MsgKind.CAPABILITY_ACK]
            b, out = step(b, acks[0], 30.0)
            assert b.phase is Phase.CONFIGURED
            assert out == []
            assert a.negotiated == b.negotiated == negotiate(j7, a5)

    def test_duplicate_pair_request_mid_negotiation(self, j7, a5):
        b = new_session("B", "responder", a5)
        b, _ = step(b, Timer("start"), 0.0)
        req = Message(MsgKind.PAIR_REQUEST, "A")
        b, first = step(b, req, 10.0)
        b, again = step(b, req, 15.0)
        assert b.phase is Phase.NEGOTIATING
        assert [m.kind for m in again] == [
            MsgKind.PAIR_ACCEPT,
            MsgKind.CAPABILITY_OFFER,
        ]


def _peer_events(spec, peer_spec):
    """Every timer kind, and every message kind from the peer, with valid payloads."""
    peer = "Z"
    return [
        Timer("start"),
        Timer("propose_capture", 50.0),
        Timer("capture_begin"),
        Timer("tick_due"),
        Timer("capture_end"),
        Timer("retransmit", 1),
        Timer("give_up"),
        Timer("abort"),
        Message(MsgKind.PAIR_REQUEST, peer),
        Message(MsgKind.PAIR_ACCEPT, peer),
        Message(MsgKind.CAPABILITY_OFFER, peer, peer_spec),
        Message(MsgKind.CAPABILITY_ACK, peer, negotiate(peer_spec, spec)),
        Message(MsgKind.CAPTURE_START, peer, 150.0),
        Message(MsgKind.FRAME_TICK, peer, TickStamp(0, 150.0)),
        Message(MsgKind.ERROR, peer, "boom"),
    ]


# indices into _peer_events along each role's successful session, with
# duplicates, so that random runs get past pairing
_HAPPY_PATH = {
    "initiator": [0, 9, 9, 10, 10, 1, 2, 3, 3, 4],
    "responder": [0, 8, 8, 11, 11, 12, 2, 13, 3, 4],
}


class TestUnacked:
    @settings(max_examples=examples(300), deadline=None)
    @given(
        role=st.sampled_from(["initiator", "responder"]),
        picks=st.lists(
            st.tuples(st.none() | st.integers(0, 14), st.floats(0.0, 100.0)), max_size=14
        ),
    )
    def test_unacked_matches_role_phase_rule(self, j7, a5, role, picks):
        """`unacked` is set exactly where the old role/phase rule waited.

        Each pick is either the role's next happy-path event (None) or any
        event at all, at a random local time.
        """
        spec, peer_spec = (j7, a5) if role == "initiator" else (a5, j7)
        events = _peer_events(spec, peer_spec)
        path = iter(_HAPPY_PATH[role])
        s = new_session("S", role, spec)
        for index, now in picks:
            s, _ = step(s, events[next(path, 0) if index is None else index], now)
            assert bool(s.unacked) == awaiting_oracle(s)
            if s.unacked:
                assert [m.kind for m in s.unacked] in (
                    [MsgKind.PAIR_REQUEST],
                    [MsgKind.PAIR_ACCEPT, MsgKind.CAPABILITY_OFFER],
                )
                assert all(m.sender == "S" for m in s.unacked)

    def test_each_retransmit_resends_exactly_the_unacked_set(self, j7, a5):
        expected = {"A": [MsgKind.PAIR_REQUEST],
                    "B": [MsgKind.PAIR_ACCEPT, MsgKind.CAPABILITY_OFFER]}
        resent = {"A": 0, "B": 0}
        for seed in range(20):
            run = run_pairing(j7, a5, SimulatedTransport(10.0, 2.0, 0.5), seed=seed)
            entries = run.transcript
            for i, e in enumerate(entries):
                if e.kind == "timer" and e.what.kind == "retransmit":
                    sends = [
                        f.what.kind
                        for f in entries[i + 1:]
                        if f.time == e.time and f.kind == "send" and f.who.startswith(e.who)
                    ]
                    assert sends[: len(expected[e.who])] == expected[e.who]
                    resent[e.who] += 1
        assert resent["A"] > 0 and resent["B"] > 0

    def test_step_fails_retransmit_timer(self, j7):
        s, _ = step(new_session("A", "initiator", j7), Timer("start"), 0.0)
        s, out = step(s, Timer("retransmit", 1), 40.0)
        assert s.phase is Phase.FAILED and s.unacked == ()
        assert out == []


def _phase_states(role, spec, peer_spec):
    """One session per phase, with the fields a real run has there.

    Configured comes twice, before and after a capture start is recorded.
    """
    s = new_session("S", role, spec)
    pending = {
        "initiator": (Message(MsgKind.PAIR_REQUEST, "S"),),
        "responder": (Message(MsgKind.PAIR_ACCEPT, "S"),
                      Message(MsgKind.CAPABILITY_OFFER, "S", spec)),
    }[role]
    waiting = Phase.PAIRING if role == "initiator" else Phase.NEGOTIATING
    profile = negotiate(spec, peer_spec)
    for phase in Phase:
        unacked = pending if phase is waiting else ()
        negotiated = profile if phase in (Phase.CONFIGURED, Phase.CAPTURING, Phase.DONE) else None
        starts = (None, 100.0) if phase is Phase.CONFIGURED else (
            (100.0,) if phase in (Phase.CAPTURING, Phase.DONE) else (None,))
        for start in starts:
            yield dataclasses.replace(s, phase=phase, unacked=unacked, negotiated=negotiated,
                                      capture_start=start)


class TestTransitionTable:
    """`step` against the if-chains it replaced (`oracles.step_oracle`)."""

    def test_every_role_phase_and_event_matches_the_oracle(self, j7, a5):
        cases = 0
        for role, spec, peer_spec in (("initiator", j7, a5), ("responder", a5, j7)):
            events = _peer_events(spec, peer_spec) + [Timer("x")]
            for state in _phase_states(role, spec, peer_spec):
                for event in events:
                    for now in (0.0, 200.0):
                        expected = step_oracle(state, event, now)
                        assert step(state, event, now) == expected, (role, state.phase, event, now)
                        cases += 1
        assert cases == 2 * 8 * 16 * 2

    @settings(max_examples=examples(300), deadline=None)
    @given(
        role=st.sampled_from(["initiator", "responder"]),
        picks=st.lists(
            st.tuples(st.none() | st.integers(0, 14), st.floats(0.0, 200.0)), max_size=14
        ),
    )
    def test_random_event_sequences_match_the_oracle(self, j7, a5, role, picks):
        # the same picks as TestUnacked: mostly the happy path, anything else mixed in
        spec, peer_spec = (j7, a5) if role == "initiator" else (a5, j7)
        events = _peer_events(spec, peer_spec)
        path = iter(_HAPPY_PATH[role])
        s = new_session("S", role, spec)
        for index, now in picks:
            event = events[next(path, 0) if index is None else index]
            expected = step_oracle(s, event, now)
            got = step(s, event, now)
            assert got == expected
            s = got[0]

    def test_module_docstring_renders_every_row(self):
        doc = syncproto.__doc__
        assert "{transitions}" not in doc
        for handler in set(TRANSITIONS.values()):
            assert f" | {handler.__doc__}\n" in doc


class TestRunPairing:
    def test_lossless_reaches_configured(self, j7, a5):
        run = run_pairing(j7, a5, LOSSLESS, seed=0)
        assert run.state_a.phase is Phase.CONFIGURED
        assert run.state_b.phase is Phase.CONFIGURED
        assert run.state_a.negotiated == run.state_b.negotiated == negotiate(j7, a5)

    def test_lossless_with_jitter(self, j7, a5):
        run = run_pairing(j7, a5, SimulatedTransport(10.0, 8.0, 0.0), seed=3)
        assert run.state_a.phase is Phase.CONFIGURED
        assert run.state_b.phase is Phase.CONFIGURED

    def test_transcript_pairs_sends_with_deliveries(self, j7, a5):
        run = run_pairing(j7, a5, LOSSLESS, seed=0)
        sends = [e for e in run.transcript if e.kind == "send"]
        delivered = [e for e in run.transcript if e.kind == "deliver"]
        assert len(sends) == len(delivered) == 4
        for kind in ("pair_request", "pair_accept", "capability_offer",
                     "capability_ack"):
            assert any(kind in e.detail for e in sends)
        for send, arrival in zip(sends, delivered):
            assert arrival.time == pytest.approx(send.time + 10.0)

    def test_total_loss_fails_both_after_budget(self, j7, a5):
        run = run_pairing(j7, a5, SimulatedTransport(10.0, 0.0, 1.0), seed=0)
        assert run.state_a.phase is Phase.FAILED
        assert run.state_b.phase is Phase.FAILED
        assert "retry budget exhausted" in run.state_a.fail_reason
        retries = [e for e in run.transcript
                   if e.kind == "timer" and "retransmit" in e.detail]
        assert len(retries) == 3  # the configured budget, then give_up
        assert any(e.detail == "give_up" for e in run.transcript)

    def test_lossy_sweep_terminal_phases_always_match(self, j7, a5):
        configured = failed = 0
        for seed in range(100):
            run = run_pairing(j7, a5, SimulatedTransport(10.0, 4.0, 0.3), seed=seed)
            assert run.state_a.phase == run.state_b.phase
            assert run.state_a.phase in (Phase.CONFIGURED, Phase.FAILED)
            if run.state_a.phase is Phase.CONFIGURED:
                configured += 1
                assert run.state_a.negotiated == run.state_b.negotiated
            else:
                failed += 1
            # negotiated is set iff the session got configured; a session
            # aborted AFTER configuring keeps its profile but must say so
            for s in (run.state_a, run.state_b):
                if s.phase is Phase.CONFIGURED:
                    assert s.negotiated is not None
                elif s.negotiated is not None:
                    assert s.fail_reason == "aborted: peer failure"
        assert configured > 0 and failed > 0

    def test_identical_seeds_identical_transcripts(self, j7, a5):
        t = SimulatedTransport(12.0, 6.0, 0.25)
        one = run_pairing(j7, a5, t, seed=42)
        two = run_pairing(j7, a5, t, seed=42)
        assert transcript_text(one.transcript) == transcript_text(two.transcript)

    def test_retry_recovers_from_single_loss(self, j7, a5):
        # find a seed where something is dropped yet pairing still succeeds
        recovered = False
        for seed in range(40):
            run = run_pairing(j7, a5, SimulatedTransport(10.0, 0.0, 0.25), seed=seed)
            dropped = any(e.kind == "drop" for e in run.transcript)
            if dropped and run.state_a.phase is Phase.CONFIGURED:
                recovered = True
                break
        assert recovered


class _DropScript:
    """Stands in for `random.Random(seed)`: under loss 0.5 it drops exactly the sends in `drops`.

    `Simulator._send` draws `random()` once per send, so send `i` is dropped
    when it draws 0.0 and delivered when it draws 0.75; jitter draws its low end.
    """

    def __init__(self, drops):
        self.drops = drops
        self.sends = itertools.count()

    def random(self):
        return 0.0 if next(self.sends) in self.drops else 0.75

    def uniform(self, a, b):
        return a


class TestDropSets:
    """Every drop set of pairing's first sends, run with exactly those sends lost.

    The small-scope hypothesis (Jackson, *Software Abstractions*): a protocol
    fault shows in some short run, so checking every short run finds it.
    Equal phases alone cannot tell a lost session from a sound one, because
    a failure on one end aborts the other; so one lost send must be survived.
    """

    FIRST_SENDS = 12

    def test_pairing_ends_alike_and_survives_any_one_drop(self, j7, a5, monkeypatch):
        # each Simulator's `Random` reads `drops` when the run builds it: the run's own set
        monkeypatch.setattr(syncproto, "random", types.SimpleNamespace(
            Random=lambda seed: _DropScript(drops)))
        transport = SimulatedTransport(10.0, 5.0, 0.5)
        bad, phases = [], set()
        for mask in range(1 << self.FIRST_SENDS):
            drops = {i for i in range(self.FIRST_SENDS) if mask >> i & 1}
            run = run_pairing(j7, a5, transport)
            a, b = run.state_a, run.state_b
            phases.add(a.phase)
            sound = a.phase is b.phase and a.phase in (Phase.CONFIGURED, Phase.FAILED)
            if a.phase is Phase.CONFIGURED:
                sound = sound and a.negotiated == b.negotiated
            if len(drops) <= 1:
                sound = sound and a.phase is Phase.CONFIGURED
            if not sound:
                bad.append((sorted(drops), a.phase, b.phase))
        assert bad == []
        assert phases == {Phase.CONFIGURED, Phase.FAILED}  # the drops bite


class TestRunCaptureSync:
    def test_shared_future_start_no_clock_error(self, j7, a5):
        pairing = run_pairing(j7, a5, LOSSLESS, seed=0)
        capture = run_capture_sync(
            (pairing.state_a, pairing.state_b), LOSSLESS, 50.0, seed=1
        )
        assert capture.skew == 0.0
        assert capture.start_a == capture.start_b == 50.0
        assert capture.state_a.phase is Phase.CAPTURING
        assert capture.state_b.phase is Phase.CAPTURING

    def test_skew_equals_offset_difference(self, j7, a5):
        offsets = (3.0, -4.0)
        pairing = run_pairing(j7, a5, LOSSLESS, seed=0, clock_offsets=offsets)
        capture = run_capture_sync(
            (pairing.state_a, pairing.state_b), LOSSLESS, 50.0,
            seed=1, clock_offsets=offsets,
        )
        assert capture.skew == pytest.approx(7.0)

    def test_skew_bounded_by_twice_max_offset(self, j7, a5):
        rng = random.Random(6)
        worst = 0.0
        for seed in range(50):
            offsets = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
            pairing = run_pairing(j7, a5, LOSSLESS, seed=seed, clock_offsets=offsets)
            capture = run_capture_sync(
                (pairing.state_a, pairing.state_b), LOSSLESS, 50.0,
                seed=seed, clock_offsets=offsets,
            )
            assert capture.skew is not None
            assert capture.skew <= 10.0 + 1e-9
            worst = max(worst, capture.skew)
        assert worst > 0.0

    def test_capture_delay_shorter_than_latency_fails(self, j7, a5):
        pairing = run_pairing(j7, a5, LOSSLESS, seed=0)
        capture = run_capture_sync(
            (pairing.state_a, pairing.state_b), LOSSLESS, 5.0, seed=1
        )
        assert capture.state_a.phase is Phase.FAILED
        assert capture.state_b.phase is Phase.FAILED
        reasons = {capture.state_a.fail_reason, capture.state_b.fail_reason}
        assert any("start time in past" in r for r in reasons)
        assert capture.skew is None

    def test_requires_configured_sessions(self, j7, a5):
        fresh = (new_session("A", "initiator", j7), new_session("B", "responder", a5))
        with pytest.raises(ValueError, match="configured"):
            run_capture_sync(fresh, LOSSLESS, 50.0)


class TestRunFrameSync:
    def test_thirty_fps_for_one_second(self, j7, a5):
        _, _, frames = _chain(j7, a5, LOSSLESS)
        assert len(frames.ticks_a) == len(frames.ticks_b) == 30
        assert [t.seq for t in frames.ticks_a] == list(range(30))
        assert [t.seq for t in frames.ticks_b] == list(range(30))
        assert frames.state_a.phase is Phase.DONE
        assert frames.state_b.phase is Phase.DONE

    def test_per_seq_timestamps_match_without_clock_error(self, j7, a5):
        _, _, frames = _chain(j7, a5, LOSSLESS)
        for ta, tb in zip(frames.ticks_a, frames.ticks_b):
            assert ta.seq == tb.seq
            assert ta.timestamp == tb.timestamp

    def test_per_seq_timestamp_difference_bounded_by_clock_error(self, j7, a5):
        offsets = (4.0, -2.5)
        _, _, frames = _chain(j7, a5, LOSSLESS, offsets=offsets)
        for ta, tb in zip(frames.ticks_a, frames.ticks_b):
            # local stamps share the agreed start; global emission differs
            # by the offset difference only
            assert abs(ta.timestamp - tb.timestamp) <= 2 * 5.0

    def test_b_emits_negotiated_30_despite_supporting_60(self, j7, a5):
        assert 60.0 in a5.frame_rates
        _, _, frames = _chain(j7, a5, LOSSLESS)
        assert len(frames.ticks_b) == 30
        period = frames.ticks_b[1].timestamp - frames.ticks_b[0].timestamp
        assert period == pytest.approx(1000.0 / 30.0)

    def test_seqs_gapless_and_strictly_increasing(self, j7, a5):
        for seed in range(10):
            _, _, frames = _chain(
                j7, a5, SimulatedTransport(10.0, 3.0, 0.0), seed=seed * 10,
                duration=500.0,
            )
            for ticks in (frames.ticks_a, frames.ticks_b):
                seqs = [t.seq for t in ticks]
                assert seqs == list(range(len(seqs)))

    def test_tampered_fps_detected_as_cadence_mismatch(self, j7, a5):
        pairing = run_pairing(j7, a5, LOSSLESS, seed=0)
        capture = run_capture_sync(
            (pairing.state_a, pairing.state_b), LOSSLESS, 50.0, seed=1
        )
        fast = dataclasses.replace(
            capture.state_b,
            negotiated=dataclasses.replace(capture.state_b.negotiated, frame_rate=60.0),
        )
        frames = run_frame_sync((capture.state_a, fast), LOSSLESS, 200.0, seed=2)
        assert frames.state_a.phase is Phase.FAILED
        assert frames.state_b.phase is Phase.FAILED
        reasons = (frames.state_a.fail_reason or "") + (frames.state_b.fail_reason or "")
        assert "cadence mismatch" in reasons

    def test_chain_is_deterministic(self, j7, a5):
        t = SimulatedTransport(10.0, 2.0, 0.0)
        runs = []
        for _ in range(2):
            p, c, f = _chain(j7, a5, t, seed=7, duration=400.0)
            runs.append(
                transcript_text(p.transcript)
                + transcript_text(c.transcript)
                + transcript_text(f.transcript)
            )
        assert runs[0] == runs[1]

    def test_requires_capturing_sessions(self, j7, a5):
        pairing = run_pairing(j7, a5, LOSSLESS, seed=0)
        with pytest.raises(ValueError, match="mid-capture"):
            run_frame_sync((pairing.state_a, pairing.state_b), LOSSLESS, 100.0)


class TestRunSession:
    OFFSETS = (3.0, -4.0)

    # (loss, jitter, seed, stages that run): every stage, a capture start
    # lost on the way, and a pairing that fails
    @pytest.mark.parametrize("loss, jitter, seed, stages", [
        (0.0, 0.0, 0, 3), (0.3, 5.0, 1, 3), (0.3, 5.0, 0, 2), (0.5, 5.0, 3, 2), (0.1, 0.0, 7, 1),
    ])
    def test_stages_equal_the_hand_chained_runners(self, j7, a5, loss, jitter, seed, stages):
        transport = SimulatedTransport(10.0, jitter, loss)
        run = _chain(j7, a5, transport, seed, self.OFFSETS, duration=300.0)
        pairing = run_pairing(j7, a5, transport, seed, self.OFFSETS)
        capture = frames = None
        if pairing.state_a.phase is Phase.CONFIGURED:
            ends = (pairing.state_a, pairing.state_b)
            capture = run_capture_sync(ends, transport, 50.0, seed + 1, self.OFFSETS)
            if capture.skew is not None:
                ends = (capture.state_a, capture.state_b)
                frames = run_frame_sync(ends, transport, 300.0, seed + 2, self.OFFSETS)
        assert run == (pairing, capture, frames)
        assert sum(stage is not None for stage in run) == stages

    def test_fields_a_stage_does_not_produce_are_none_or_empty(self, j7, a5):
        pairing, capture, frames = _chain(j7, a5, LOSSLESS, offsets=self.OFFSETS)
        assert (pairing.start_a, pairing.start_b, pairing.skew) == (None, None, None)
        assert pairing.ticks_a == pairing.ticks_b == []
        assert capture.skew == pytest.approx(7.0)
        assert capture.ticks_a == capture.ticks_b == []
        assert (frames.start_a, frames.start_b, frames.skew) == (None, None, None)
        assert len(frames.ticks_a) == len(frames.ticks_b) == 30

    def test_each_runners_defaults_are_the_values_they_state(self, j7, a5):
        # under loss and jitter, a seed other than the stated one shows, and so does a
        # clock offset in every stage that reads a local time: pairing reads none
        lossy = SimulatedTransport(10.0, 5.0, 0.1)
        pairing = run_pairing(j7, a5, LOSSLESS)
        configured = (pairing.state_a, pairing.state_b)
        capture = run_capture_sync(configured, LOSSLESS, 50.0)
        capturing = (capture.state_a, capture.state_b)
        for run, reads_local_time in [
            (functools.partial(run_pairing, j7, a5, lossy), False),
            (functools.partial(run_capture_sync, configured, lossy, 50.0), True),
            (functools.partial(run_frame_sync, capturing, lossy, 300.0), True),
            (functools.partial(run_session, j7, a5, lossy, capture_delay=50.0, duration=300.0),
             True),
        ]:
            stated = run(seed=0, clock_offsets=(0.0, 0.0))
            assert run() == stated
            assert run(seed=1) != stated
            for offsets in [(1.0, 0.0), (0.0, 1.0)]:
                assert (run(clock_offsets=offsets) != stated) is reads_local_time

    def test_transport_defaults_are_the_values_they_state(self):
        assert SimulatedTransport() == SimulatedTransport(10.0, 0.0, 0.0)


class TestTransport:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_latency": -1.0},
            {"jitter": -0.1},
            {"loss_rate": -0.2},
            {"loss_rate": 1.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulatedTransport(**kwargs)

    @pytest.mark.parametrize("rate", [-0.0, 1, math.nextafter(1, 2), math.nan])
    def test_loss_rate_is_a_probability(self, rate):
        if 0 <= rate <= 1:
            assert SimulatedTransport(loss_rate=rate).loss_rate == rate
            return
        with pytest.raises(ValueError, match=rf"^loss_rate must be in \[0, 1\], got {rate}$"):
            SimulatedTransport(loss_rate=rate)

    @pytest.mark.parametrize("field", ["base_latency", "jitter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_latency_and_jitter_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SimulatedTransport(**{field: value})

    @pytest.mark.parametrize("offsets", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_runners_reject_non_finite_clock_offsets(self, j7, a5, offsets):
        with pytest.raises(ValueError, match="clock offsets must be finite"):
            run_pairing(j7, a5, LOSSLESS, clock_offsets=offsets)
        pairing = run_pairing(j7, a5, LOSSLESS)
        configured = (pairing.state_a, pairing.state_b)
        with pytest.raises(ValueError, match="clock offsets must be finite"):
            run_capture_sync(configured, LOSSLESS, 50.0, clock_offsets=offsets)
        capture = run_capture_sync(configured, LOSSLESS, 50.0)
        with pytest.raises(ValueError, match="clock offsets must be finite"):
            run_frame_sync((capture.state_a, capture.state_b), LOSSLESS, 100.0,
                           clock_offsets=offsets)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_runners_reject_non_finite_delay_and_duration(self, j7, a5, value):
        pairing = run_pairing(j7, a5, LOSSLESS)
        configured = (pairing.state_a, pairing.state_b)
        with pytest.raises(ValueError, match="capture delay must be finite"):
            run_capture_sync(configured, LOSSLESS, value)
        capture = run_capture_sync(configured, LOSSLESS, 50.0)
        with pytest.raises(ValueError, match="duration must be finite"):
            run_frame_sync((capture.state_a, capture.state_b), LOSSLESS, value)

    def test_runners_reject_negative_duration(self, j7, a5):
        message = r"^duration must be finite and non-negative, got -1e\+308$"
        with pytest.raises(ValueError, match=message):
            run_session(j7, a5, LOSSLESS, capture_delay=50.0, duration=-1e308)
        capture = run_session(j7, a5, LOSSLESS, capture_delay=50.0).capture
        with pytest.raises(ValueError, match=message):
            run_frame_sync((capture.state_a, capture.state_b), LOSSLESS, -1e308)
        for duration in (0.0, -0.0):
            run = run_session(j7, a5, LOSSLESS, capture_delay=50.0, duration=duration)
            assert run.frames is None
            assert run.final.state_a.phase is Phase.CAPTURING

    def test_latency_bound_is_inclusive(self, j7, a5):
        # MAX_TIME_MS keeps every simulated time far inside the finite floats
        SimulatedTransport(base_latency=MAX_TIME_MS, jitter=MAX_TIME_MS)
        above = math.nextafter(MAX_TIME_MS, math.inf)
        for field in ("base_latency", "jitter"):
            with pytest.raises(ValueError, match=r"must be at most 1e\+10 ms, got 1000000000\d\.\d+$"):
                SimulatedTransport(**{field: above})

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_runners_reject_offsets_and_delays_beyond_the_bound(self, j7, a5, value):
        limit = re.escape("at most 1e+10" if value > 0 else "at least -1e+10")
        with pytest.raises(ValueError, match=rf"^clock offsets must be {limit} ms, got"):
            run_pairing(j7, a5, LOSSLESS, clock_offsets=(0.0, value))
        pairing = run_pairing(j7, a5, LOSSLESS)
        with pytest.raises(ValueError, match=rf"^capture delay must be {limit} ms, got"):
            run_capture_sync((pairing.state_a, pairing.state_b), LOSSLESS, value)

    @pytest.mark.parametrize("duration", [math.nextafter(MAX_TIME_MS, math.inf), 1e17, 1e308])
    def test_runners_reject_a_duration_beyond_the_bound(self, j7, a5, duration):
        # 1e17 scheduled 3e15 tick events before, and 1e308 held too many ticks to count
        message = rf"^duration must be at most 1e\+10 ms, got {re.escape(str(duration))}$"
        with pytest.raises(ValueError, match=message):
            run_session(j7, a5, LOSSLESS, capture_delay=50.0, duration=duration)
        capture = run_session(j7, a5, LOSSLESS, capture_delay=50.0).capture
        with pytest.raises(ValueError, match=message):
            run_frame_sync((capture.state_a, capture.state_b), LOSSLESS, duration)

    def test_frame_sync_rejects_a_duration_too_long_to_count(self, j7, a5):
        # a duration within the bound whose tick count overflows, at a negotiated frame
        # rate of 1e305 that no catalog admits
        capture = _chain(j7, a5, LOSSLESS, duration=0.0).capture
        fast = [dataclasses.replace(s, negotiated=CapabilityProfile((1280, 720), 1e305))
                for s in (capture.state_a, capture.state_b)]
        message = r"^duration 10000000000\.0 ms holds too many frame ticks to count$"
        with pytest.raises(ValueError, match=message):
            run_frame_sync(fast, LOSSLESS, MAX_TIME_MS)

    def test_simulator_needs_two_sessions(self, j7):
        with pytest.raises(ValueError, match="two sessions"):
            Simulator((new_session("A", "initiator", j7),), LOSSLESS, 0, (0.0,))

    def test_simulator_rejects_one_endpoint_id_twice(self, j7, a5):
        sessions = (new_session("A", "initiator", j7), new_session("A", "responder", a5))
        with pytest.raises(ValueError, match=r"two sessions with distinct ids, got \['A', 'A'\]"):
            Simulator(sessions, LOSSLESS, 0, (0.0, 0.0))

    def test_transcript_text_format(self, j7, a5):
        run = run_pairing(j7, a5, LOSSLESS, seed=0)
        text = transcript_text(run.transcript)
        lines = text.splitlines()
        assert lines
        for line in lines:
            assert len(line) >= 26
            float(line[:10])  # fixed-width time column parses


class TestTranscriptEntries:
    """An entry holds the event itself; its text is rendered only when asked for."""

    def test_entries_hold_messages_timers_and_phase_pairs(self, j7, a5):
        run = run_pairing(j7, a5, LOSSLESS, seed=0)
        first = run.transcript[:4]
        assert [(e.time, e.who, e.kind) for e in first] == [
            (0.0, "A", "timer"), (0.0, "A", "phase"), (0.0, "A->B", "send"), (0.0, "B", "timer")]
        assert first[0].what == Timer("start")
        assert first[1].what == (Phase.IDLE, Phase.PAIRING)
        assert first[2].what == Message(MsgKind.PAIR_REQUEST, "A")
        offer = next(e for e in run.transcript if e.kind == "deliver"
                     and e.what.kind is MsgKind.CAPABILITY_OFFER)
        assert offer.what.payload == a5
        assert offer.detail == 'capability_offer {"model":"A5-fixture"}'

    def test_capture_start_and_tick_show_their_times_to_a_microsecond(self):
        start = TranscriptEntry(0.0, "A->B", "send", Message(MsgKind.CAPTURE_START, "A", 53.12345))
        assert start.detail == 'capture_start {"start_ms":53.123}'
        tick = Message(MsgKind.FRAME_TICK, "A", TickStamp(2, 119.78765))
        assert TranscriptEntry(0.0, "A->B", "send", tick).detail == \
            'frame_tick {"seq":2,"ts_ms":119.788}'

    def test_retransmit_entry_holds_its_attempt(self, j7, a5):
        run = run_pairing(j7, a5, SimulatedTransport(10.0, 0.0, 1.0), seed=0)
        timers = [e.what for e in run.transcript if e.kind == "timer" and e.who == "A"]
        assert timers[1:] == [Timer("retransmit", n) for n in (1, 2, 3)] + [Timer("give_up")]
        lines = transcript_text(run.transcript).splitlines()
        assert [line for line in lines if " A      timer" in line][1:] == [
            "    40.000 A      timer   retransmit attempt 1",
            "   120.000 A      timer   retransmit attempt 2",
            "   280.000 A      timer   retransmit attempt 3",
            "   600.000 A      timer   give_up",
        ]

    def test_running_formats_nothing(self, j7, a5, monkeypatch):
        calls = []
        real = syncproto._payload_json
        monkeypatch.setattr(syncproto, "_payload_json", lambda msg: calls.append(msg) or real(msg))
        run = run_session(j7, a5, SimulatedTransport(10.0, 5.0, 0.3), seed=2,
                          capture_delay=50.0, duration=500.0)
        assert calls == []
        transcript_text(run.transcript)
        assert len(calls) == sum(isinstance(e.what, Message) for e in run.transcript) > 0

    def test_stage_ticks_are_the_frame_ticks_each_end_sent(self, j7, a5):
        _, capture, _ = _chain(j7, a5, LOSSLESS, duration=0.0)
        ends = (capture.state_a, capture.state_b)
        frames = run_frame_sync(ends, SimulatedTransport(10.0, 5.0, 0.5), 500.0, seed=4)
        for end, ticks in (("A", frames.ticks_a), ("B", frames.ticks_b)):
            sent = [e.what.payload for e in frames.transcript
                    if e.kind == "send" and e.what.sender == end]
            assert ticks == sent and [t.seq for t in ticks] == list(range(len(ticks)))
            assert any(e.kind == "drop" and e.what.sender == end for e in frames.transcript)


def _sweep_digest(j7, a5) -> str:
    """sha256 over a fixed 300-session pairing -> capture -> frame-sync sweep.

    Covers every transcript plus each end's final phase and fail reason and
    the capture skew, so any change to what the simulator sends, drops,
    resends or decides shows as a different digest.
    """
    digest = hashlib.sha256()
    for loss in (0.0, 0.1, 0.3, 0.5, 1.0):
        for jitter in (0.0, 5.0):
            transport = SimulatedTransport(10.0, jitter, loss)
            for seed in range(30):
                offsets = (((seed % 5) - 2) * 1.5, ((seed % 3) - 1) * 2.5)
                run = run_session(j7, a5, transport, seed, offsets,
                                  capture_delay=50.0, duration=500.0)
                text = [transcript_text(run.transcript)]
                ends = (run.final.state_a, run.final.state_b)
                skew = run.capture.skew if run.capture else None
                for s in ends:
                    text.append(f"{s.endpoint_id} {s.phase.value} {s.fail_reason!r}\n")
                text.append(f"skew {skew!r}\n")
                digest.update("".join(text).encode())
    return digest.hexdigest()


def test_sweep_transcripts_pinned(j7, a5):
    assert _sweep_digest(j7, a5) == SWEEP_DIGEST
