"""Pairing and capture-sync state machines over a simulated lossy link.

Two endpoints (an initiator and a responder) pair, exchange capability
sets, agree on a shared capture profile, start capturing at a shared
future local timestamp, and emit frame ticks at the negotiated fps.  The
state machines are pure: `step(state, event, local_now)` returns the next
state plus outbound messages and never touches a clock, socket, or RNG.
The state says which sent messages still wait for an answer (`unacked`);
scheduling, transport loss/jitter, and when to resend live in the Simulator.

Transitions: `step` applies the `TRANSITIONS` row for (role, phase, event
kind).  An event with no row fails the session; a message with no row is
answered with an Error too.  Stale timers and duplicates have "unchanged"
rows.  Failed absorbs every event, and Done every event but the abort timer.

{transitions}

Retransmission: `SessionState.unacked` holds the messages an endpoint
still waits to have answered (the rows that send "until answered/acked");
a row that takes the answer, or fails, empties it.  The Simulator resends
exactly those messages up to RETRY_BUDGET times, with doubling timeouts
starting at RETRY_FACTOR x base_latency (x 1 ms at zero latency);
exhausting the budget fails the session and the simulator then forces the
peer to Failed as well.  CaptureStart is sent once, so a lost CaptureStart
leaves one end Configured while the other captures.

Clock model: one global simulation clock plus a constant per-endpoint
offset (no drift).  CaptureStart carries a local timestamp; both devices
begin when their own clock shows it, so the global start skew equals the
offset difference.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, NamedTuple

from . import check_range
from .registry import CapabilityProfile, DeviceSpec, negotiate

RETRY_BUDGET = 3
RETRY_FACTOR = 4.0
_CADENCE_TOL_MS = 1e-6


class Phase(Enum):
    IDLE = "idle"
    PAIRING = "pairing"
    NEGOTIATING = "negotiating"
    CONFIGURED = "configured"
    CAPTURING = "capturing"
    DONE = "done"
    FAILED = "failed"


class MsgKind(Enum):
    PAIR_REQUEST = "pair_request"
    PAIR_ACCEPT = "pair_accept"
    CAPABILITY_OFFER = "capability_offer"
    CAPABILITY_ACK = "capability_ack"
    CAPTURE_START = "capture_start"
    FRAME_TICK = "frame_tick"
    ERROR = "error"


@dataclass(frozen=True)
class TickStamp:
    seq: int
    timestamp: float


@dataclass(frozen=True)
class Message:
    kind: MsgKind
    sender: str
    payload: Any = None


@dataclass(frozen=True)
class Timer:
    kind: str
    payload: Any = None


@dataclass(frozen=True)
class SessionState:
    endpoint_id: str
    role: str  # "initiator" | "responder"
    spec: DeviceSpec
    phase: Phase = Phase.IDLE
    negotiated: CapabilityProfile | None = None
    capture_start: float | None = None  # local clock ms
    next_tick_seq: int = 0
    fail_reason: str | None = None
    unacked: tuple[Message, ...] = ()  # sent, resent until the peer answers


Step = tuple[SessionState, list[Message]]
ROLES = ("initiator", "responder")


def new_session(endpoint_id: str, role: str, spec: DeviceSpec) -> SessionState:
    if role not in ROLES:
        raise ValueError(f"role must be initiator or responder, got {role!r}")
    return SessionState(endpoint_id=endpoint_id, role=role, spec=spec)


def _fail(state: SessionState, reason: str, emit: bool = False) -> Step:
    out = [Message(MsgKind.ERROR, state.endpoint_id, reason)] if emit else []
    return replace(state, phase=Phase.FAILED, fail_reason=reason, unacked=()), out


def _profile_within(profile: CapabilityProfile, spec: DeviceSpec) -> bool:
    # the adopted profile must not ask this device for more than its maxima
    own_fps = max(spec.frame_rates)
    own_px = max(w * h for w, h in spec.resolutions)
    return profile.frame_rate <= own_fps and profile.resolution[0] * profile.resolution[1] <= own_px


# --------------------------------------------------------------------------
# transitions: each handler maps (state, event, local_now) to the next state
# and the messages to send, and its docstring states that outcome


def _unchanged(s: SessionState, event: Message | Timer, now: float) -> Step:
    """unchanged"""
    return s, []


def _goto(phase: Phase, **changes: Any) -> Callable[..., Step]:
    def handler(s: SessionState, event: Message | Timer, now: float) -> Step:
        return replace(s, phase=phase, **changes), []
    handler.__doc__ = f"-> {phase.value}"
    return handler


def _request_pairing(s: SessionState, timer: Timer, now: float) -> Step:
    """-> pairing, send PairRequest until answered"""
    request = (Message(MsgKind.PAIR_REQUEST, s.endpoint_id),)
    return replace(s, phase=Phase.PAIRING, unacked=request), list(request)


def _answer_request(s: SessionState, msg: Message, now: float) -> Step:
    """-> negotiating, send PairAccept + CapabilityOffer until acked"""
    me = s.endpoint_id
    replies = (Message(MsgKind.PAIR_ACCEPT, me), Message(MsgKind.CAPABILITY_OFFER, me, s.spec))
    return replace(s, phase=Phase.NEGOTIATING, unacked=replies), list(replies)


def _adopt_offer(s: SessionState, msg: Message, now: float) -> Step:
    """-> configured, send CapabilityAck"""
    profile = negotiate(s.spec, msg.payload)
    ack = Message(MsgKind.CAPABILITY_ACK, s.endpoint_id, profile)
    return replace(s, phase=Phase.CONFIGURED, negotiated=profile, unacked=()), [ack]


def _resend_ack(s: SessionState, msg: Message, now: float) -> Step:
    """resend CapabilityAck"""
    return s, [Message(MsgKind.CAPABILITY_ACK, s.endpoint_id, s.negotiated)]


def _adopt_ack(s: SessionState, msg: Message, now: float) -> Step:
    """-> configured; failed + Error if the profile exceeds own caps"""
    if not _profile_within(msg.payload, s.spec):
        return _fail(s, "negotiated profile exceeds own capabilities", emit=True)
    return replace(s, phase=Phase.CONFIGURED, negotiated=msg.payload, unacked=()), []


def _propose_capture(s: SessionState, timer: Timer, now: float) -> Step:
    """record and send CaptureStart(now + delay)"""
    start = now + float(timer.payload)
    return replace(s, capture_start=start), [Message(MsgKind.CAPTURE_START, s.endpoint_id, start)]


def _record_start(s: SessionState, msg: Message, now: float) -> Step:
    """record start s; failed + Error if s <= now"""
    start = float(msg.payload)
    if start <= now:
        return _fail(s, "start time in past", emit=True)
    return replace(s, capture_start=start), []


def _begin_capture(s: SessionState, timer: Timer, now: float) -> Step:
    """-> capturing if a start is recorded, else unchanged"""
    return (s if s.capture_start is None else replace(s, phase=Phase.CAPTURING)), []


def _tick_due(s: SessionState, seq: int) -> float:
    """local time of frame tick `seq`: the capture start plus `seq` frame periods"""
    return s.capture_start + seq * (1000.0 / s.negotiated.frame_rate)


def _tick(s: SessionState, timer: Timer, now: float) -> Step:
    """send FrameTick(seq, ts)"""
    seq = s.next_tick_seq
    ts = _tick_due(s, seq)
    tick = Message(MsgKind.FRAME_TICK, s.endpoint_id, TickStamp(seq, ts))
    return replace(s, next_tick_seq=seq + 1), [tick]


def _check_cadence(s: SessionState, msg: Message, now: float) -> Step:
    """failed + Error on cadence mismatch"""
    tick: TickStamp = msg.payload
    expected = _tick_due(s, tick.seq)
    if abs(tick.timestamp - expected) <= _CADENCE_TOL_MS:
        return s, []
    got = f"got {tick.timestamp:.6f}, expected {expected:.6f}"
    return _fail(s, f"frame cadence mismatch at seq {tick.seq}: {got}", emit=True)


def _failing(reason: str) -> Callable[..., Step]:
    """A handler that fails with `reason`, its {} filled with the event's payload."""
    def handler(s: SessionState, event: Message | Timer, now: float) -> Step:
        return _fail(s, reason.format(event.payload))
    handler.__doc__ = "-> failed, " + reason.format("<their reason>")
    return handler


_LIVE = (Phase.IDLE, Phase.PAIRING, Phase.NEGOTIATING, Phase.CONFIGURED, Phase.CAPTURING)

# role(s), phase(s), event kind(s), handler: a row covers every combination
_ROWS = (
    ("initiator", Phase.IDLE, "start", _request_pairing),
    ("initiator", Phase.PAIRING, MsgKind.PAIR_ACCEPT, _goto(Phase.NEGOTIATING, unacked=())),
    ("initiator", (Phase.NEGOTIATING, Phase.CONFIGURED), MsgKind.PAIR_ACCEPT, _unchanged),
    ("initiator", (Phase.PAIRING, Phase.NEGOTIATING), MsgKind.CAPABILITY_OFFER, _adopt_offer),
    ("initiator", Phase.CONFIGURED, MsgKind.CAPABILITY_OFFER, _resend_ack),
    ("initiator", Phase.CONFIGURED, "propose_capture", _propose_capture),
    ("responder", Phase.IDLE, "start", _goto(Phase.PAIRING)),
    ("responder", (Phase.PAIRING, Phase.NEGOTIATING), MsgKind.PAIR_REQUEST, _answer_request),
    ("responder", Phase.NEGOTIATING, MsgKind.CAPABILITY_ACK, _adopt_ack),
    ("responder", Phase.CONFIGURED, MsgKind.CAPABILITY_ACK, _unchanged),
    (ROLES, Phase.CONFIGURED, MsgKind.CAPTURE_START, _record_start),
    (ROLES, Phase.CONFIGURED, "capture_begin", _begin_capture),
    (ROLES, Phase.CONFIGURED, MsgKind.FRAME_TICK, _unchanged),  # the peer began first
    (ROLES, Phase.CAPTURING, "tick_due", _tick),
    (ROLES, Phase.CAPTURING, MsgKind.FRAME_TICK, _check_cadence),
    (ROLES, Phase.CAPTURING, "capture_end", _goto(Phase.DONE)),
    (ROLES, _LIVE[:3] + _LIVE[4:], "capture_begin", _unchanged),  # stale: not configured
    (ROLES, _LIVE[:4], ("tick_due", "capture_end"), _unchanged),  # stale: not capturing
    (ROLES, _LIVE, MsgKind.ERROR, _failing("peer error: {}")),
    (ROLES, _LIVE, "give_up", _failing("timeout: retry budget exhausted")),
    (ROLES, _LIVE + (Phase.DONE,), "abort", _failing("aborted: peer failure")),
)


def _each(x: Any) -> tuple:
    return x if isinstance(x, tuple) else (x,)


TRANSITIONS: dict[tuple[str, Phase, MsgKind | str], Callable[..., Step]] = {
    (role, phase, kind): handler
    for roles, phases, kinds, handler in _ROWS
    for role in _each(roles)
    for phase in _each(phases)
    for kind in _each(kinds)
}
_TIMER_KINDS = {kind for _, _, kind in TRANSITIONS if isinstance(kind, str)}


def _name(kind: MsgKind | str) -> str:
    # a timer keeps its name; pair_request -> PairRequest
    return kind if isinstance(kind, str) else kind.value.title().replace("_", "")


if __doc__:  # None under python -OO
    __doc__ = __doc__.replace("{transitions}", "\n".join(
        f"  {'either' if roles == ROLES else roles} | {'/'.join(p.value for p in _each(phases))}"
        f" | {'timer ' * isinstance(_each(kinds)[0], str)}{'/'.join(map(_name, _each(kinds)))}"
        f" | {handler.__doc__}"
        for roles, phases, kinds, handler in _ROWS
    ))


def step(state: SessionState, event: Message | Timer, local_now: float = 0.0) -> Step:
    """Pure protocol transition: run the TRANSITIONS row for the event."""
    aborted = isinstance(event, Timer) and event.kind == "abort"
    if state.phase is Phase.FAILED or state.phase is Phase.DONE and not aborted:
        return state, []  # terminal
    if not isinstance(event, (Message, Timer)):
        raise TypeError(f"event must be Message or Timer, got {type(event).__name__}")
    handler = TRANSITIONS.get((state.role, state.phase, event.kind))
    if handler is not None:
        return handler(state, event, local_now)
    kind, is_msg = event.kind, isinstance(event, Message)
    named = isinstance(kind, MsgKind) if is_msg else kind in _TIMER_KINDS
    if named:  # but not for this role and phase
        return _fail(state, f"unexpected {_name(kind)} in {state.phase.value}", emit=is_msg)
    return _fail(state, f"unknown {'message kind' if is_msg else 'timer'} {kind!r}", emit=is_msg)


# --------------------------------------------------------------------------
# simulator


@dataclass(frozen=True)
class SimulatedTransport:
    base_latency: float = 10.0
    jitter: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self):
        check_range("latency", self.base_latency, "non-negative time")
        check_range("jitter", self.jitter, "non-negative time")
        check_range("loss_rate", self.loss_rate, "probability")


# the transcript's fields for each message kind's payload; other kinds show {}
_PAYLOAD_FIELDS: dict[MsgKind, Callable[[Any], dict]] = {
    MsgKind.CAPABILITY_OFFER: lambda spec: {"model": spec.model_id},
    MsgKind.CAPABILITY_ACK: lambda p: {
        "fps": p.frame_rate,
        "res": f"{p.resolution[0]}x{p.resolution[1]}",
        "focus": sorted(p.focus_modes),
        "capture": sorted(p.capture_modes),
    },
    MsgKind.CAPTURE_START: lambda start: {"start_ms": round(start, 3)},
    MsgKind.FRAME_TICK: lambda t: {"seq": t.seq, "ts_ms": round(t.timestamp, 3)},
    MsgKind.ERROR: lambda reason: {"reason": reason},
}


def _payload_json(msg: Message) -> str:
    fields = _PAYLOAD_FIELDS[msg.kind](msg.payload) if msg.kind in _PAYLOAD_FIELDS else {}
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


class TranscriptEntry(NamedTuple):
    """What happened, as data; `detail` renders its transcript text only when asked.

    `what` is the Message sent, dropped or delivered, the Timer that fired, or
    the (old, new) Phase pair.
    """

    time: float
    who: str  # endpoint id, or "A->B" for wire events
    kind: str  # send | drop | deliver | timer | phase
    what: Message | Timer | tuple[Phase, Phase]

    @property
    def detail(self) -> str:
        what = self.what
        if isinstance(what, Message):
            return f"{what.kind.value} {_payload_json(what)}"
        if isinstance(what, Timer):  # a retransmit timer's payload counts its attempts
            return f"retransmit attempt {what.payload}" if what.kind == "retransmit" else what.kind
        return f"{what[0].value}->{what[1].value}"


def transcript_text(entries: list[TranscriptEntry]) -> str:
    return "".join(f"{e.time:10.3f} {e.who:<6} {e.kind:<7} {e.detail}\n" for e in entries)


class Simulator:
    """Deterministic discrete-event runner for exactly two sessions.

    Owns the event heap, the seeded transport randomness, timer policy
    (resending each session's `unacked`, capture scheduling), and the
    transcript.  If either session fails, the other is aborted at
    quiescence so that neither is left running.  `clock_offsets[i]` is the
    local clock offset of `sessions[i]`.
    """

    def __init__(
        self,
        sessions: tuple[SessionState, SessionState],
        transport: SimulatedTransport,
        seed: int,
        clock_offsets: tuple[float, float],
    ):
        for offset in clock_offsets:
            check_range("clock offsets", offset, "time")
        ids = [s.endpoint_id for s in sessions]
        if len(ids) != 2 or ids[0] == ids[1]:
            raise ValueError(f"simulator needs exactly two sessions with distinct ids, got {ids}")
        self.states = dict(zip(ids, sessions))
        ids.sort()
        self.peer = {ids[0]: ids[1], ids[1]: ids[0]}
        self.transport = transport
        self.rng = random.Random(seed)
        self.offsets = dict(zip(self.states, clock_offsets))
        self.retry_delay0 = RETRY_FACTOR * (transport.base_latency or 1.0)
        self.transcript: list[TranscriptEntry] = []
        self.capture_begin_global: dict[str, float] = {}
        self._heap: list = []
        self._counter = itertools.count()
        # the armed retransmit timer per endpoint; its payload counts resends
        self._armed: dict[str, Timer | None] = {e: None for e in ids}

    def schedule(self, t_global: float, endpoint: str, event: Message | Timer) -> None:
        heapq.heappush(self._heap, (t_global, next(self._counter), endpoint, event))

    def _log(self, t: float, who: str, kind: str, what: Any) -> None:
        self.transcript.append(TranscriptEntry(round(t, 9), who, kind, what))

    def _send(self, msg: Message, t_global: float) -> None:
        src = msg.sender
        dst = self.peer[src]
        wire = f"{src}->{dst}"
        self._log(t_global, wire, "send", msg)
        if self.rng.random() < self.transport.loss_rate:
            self._log(t_global, wire, "drop", msg)
            return
        delay = self.transport.base_latency
        if self.transport.jitter > 0:
            delay += self.rng.uniform(0.0, self.transport.jitter)
        self.schedule(t_global + delay, dst, msg)

    def _update_arming(self, endpoint: str, t_global: float) -> None:
        # one retransmit timer per endpoint, armed while something is unacked
        if not self.states[endpoint].unacked:
            self._armed[endpoint] = None
        elif self._armed[endpoint] is None:
            self._armed[endpoint] = timer = Timer("retransmit", 0)
            self.schedule(t_global + self.retry_delay0, endpoint, timer)

    def dispatch(self, endpoint: str, event: Message | Timer, t_global: float) -> None:
        old = self.states[endpoint]

        if isinstance(event, Timer) and event.kind == "retransmit":
            if event is not self._armed[endpoint]:
                return  # stale timer
            if event.payload < RETRY_BUDGET:
                n = event.payload + 1
                self._armed[endpoint] = timer = Timer("retransmit", n)
                self._log(t_global, endpoint, "timer", timer)
                self.schedule(t_global + self.retry_delay0 * 2**n, endpoint, timer)
                for msg in old.unacked:
                    self._send(msg, t_global)
                return
            event = Timer("give_up")
        self._log(t_global, endpoint, "timer" if isinstance(event, Timer) else "deliver", event)

        new, outbound = step(old, event, t_global + self.offsets[endpoint])
        self.states[endpoint] = new

        if new.phase is not old.phase:
            self._log(t_global, endpoint, "phase", (old.phase, new.phase))
            if new.phase is Phase.CAPTURING:
                self.capture_begin_global[endpoint] = t_global
        if new.capture_start is not None and old.capture_start is None:
            begin_global = new.capture_start - self.offsets[endpoint]
            self.schedule(begin_global, endpoint, Timer("capture_begin"))

        for msg in outbound:
            self._send(msg, t_global)
        self._update_arming(endpoint, t_global)

    def run(self) -> None:
        t = 0.0
        while self._heap:
            t, _, endpoint, event = heapq.heappop(self._heap)
            self.dispatch(endpoint, event, t)
        self._force_symmetric_outcome(t)

    def _force_symmetric_outcome(self, t: float) -> None:
        ok = (Phase.CONFIGURED, Phase.CAPTURING, Phase.DONE)
        if all(s.phase in ok for s in self.states.values()):
            return
        for endpoint, state in sorted(self.states.items()):
            if state.phase is not Phase.FAILED:
                self.dispatch(endpoint, Timer("abort"), t)


class StageRun(NamedTuple):
    """One stage's outcome, ends in endpoint-id order; a field it does not produce is None or empty.

    `start_*` is the global time an end began capturing in this stage, `skew`
    their difference once both did, and `ticks_*` the FrameTicks each end sent.
    """

    state_a: SessionState
    state_b: SessionState
    transcript: list[TranscriptEntry]
    start_a: float | None
    start_b: float | None
    skew: float | None
    ticks_a: list[TickStamp]
    ticks_b: list[TickStamp]


def _simulate(
    sessions: tuple[SessionState, SessionState],
    transport: SimulatedTransport,
    seed: int,
    clock_offsets: tuple[float, float],
    events: list[tuple[float, str, Timer]],
) -> StageRun:
    """Run one stage: schedule the (global ms, endpoint, timer) `events` in order."""
    sim = Simulator(sessions, transport, seed, clock_offsets)
    for when, endpoint, timer in events:
        sim.schedule(when, endpoint, timer)
    sim.run()
    a, b = sorted(sim.states)
    ga, gb = sim.capture_begin_global.get(a), sim.capture_begin_global.get(b)
    skew = abs(ga - gb) if ga is not None and gb is not None else None
    ticks = [e.what for e in sim.transcript
             if e.kind == "send" and e.what.kind is MsgKind.FRAME_TICK]  # none is resent
    ta, tb = ([m.payload for m in ticks if m.sender == end] for end in (a, b))
    return StageRun(sim.states[a], sim.states[b], sim.transcript, ga, gb, skew, ta, tb)


def run_pairing(
    spec_a: DeviceSpec,
    spec_b: DeviceSpec,
    transport: SimulatedTransport,
    seed: int = 0,
    clock_offsets: tuple[float, float] = (0.0, 0.0),
) -> StageRun:
    """Drive both sessions from Idle to a shared terminal phase."""
    sessions = (new_session("A", "initiator", spec_a), new_session("B", "responder", spec_b))
    events = [(0.0, "A", Timer("start")), (0.0, "B", Timer("start"))]
    return _simulate(sessions, transport, seed, clock_offsets, events)


def run_capture_sync(
    sessions: tuple[SessionState, SessionState],
    transport: SimulatedTransport,
    capture_delay: float,
    seed: int = 0,
    clock_offsets: tuple[float, float] = (0.0, 0.0),
) -> StageRun:
    """Propose a shared future start time and begin capture on both ends."""
    check_range("capture delay", capture_delay, "time")
    sa, sb = sessions
    for s in (sa, sb):
        if s.phase is not Phase.CONFIGURED:
            raise ValueError(f"session {s.endpoint_id} is {s.phase.value}, need configured")
    initiator = sa if sa.role == "initiator" else sb
    events = [(0.0, initiator.endpoint_id, Timer("propose_capture", capture_delay))]
    return _simulate(sessions, transport, seed, clock_offsets, events)


def run_frame_sync(
    sessions: tuple[SessionState, SessionState],
    transport: SimulatedTransport,
    duration: float,
    seed: int = 0,
    clock_offsets: tuple[float, float] = (0.0, 0.0),
) -> StageRun:
    """Emit FrameTicks at the negotiated fps for `duration` ms on both ends.

    Sessions must already be Capturing with a capture start recorded (the
    normal path is run_capture_sync first).  A negative duration, one above
    MAX_TIME_MS, or one whose count of ticks is no finite float, is a
    `ValueError`.
    """
    check_range("duration", duration, "non-negative time")
    for s in sessions:
        if s.phase is not Phase.CAPTURING or s.capture_start is None or s.negotiated is None:
            raise ValueError(f"session {s.endpoint_id} is not mid-capture")
    events = []
    for s, offset in zip(sessions, clock_offsets):
        ticks = duration * s.negotiated.frame_rate / 1000.0 + 1e-9
        if not math.isfinite(ticks):
            raise ValueError(f"duration {duration} ms holds too many frame ticks to count")
        for k in range(s.next_tick_seq, math.floor(ticks)):
            events.append((_tick_due(s, k) - offset, s.endpoint_id, Timer("tick_due")))
        events.append((s.capture_start + duration - offset, s.endpoint_id, Timer("capture_end")))
    return _simulate(sessions, transport, seed, clock_offsets, events)


class SessionRun(NamedTuple):
    pairing: StageRun
    capture: StageRun | None
    frames: StageRun | None

    @property
    def final(self) -> StageRun:
        """The last stage that ran: its states are the ones the session ended in."""
        return self.frames or self.capture or self.pairing

    @property
    def transcript(self) -> list[TranscriptEntry]:
        return [entry for stage in self if stage for entry in stage.transcript]


def run_session(
    spec_a: DeviceSpec,
    spec_b: DeviceSpec,
    transport: SimulatedTransport,
    seed: int = 0,
    clock_offsets: tuple[float, float] = (0.0, 0.0),
    capture_delay: float | None = None,
    duration: float = 0.0,
) -> SessionRun:
    """Pair; given a capture delay, start capture; then emit ticks for `duration` ms.

    A stage runs on the next seed if the one before left both ends ready for
    it.  Every number is checked first, also one that no stage will use.
    """
    if capture_delay is not None:
        check_range("capture delay", capture_delay, "time")
    check_range("duration", duration, "non-negative time")
    pairing = run_pairing(spec_a, spec_b, transport, seed, clock_offsets)
    capture = frames = None
    if capture_delay is not None and pairing.state_a.phase is Phase.CONFIGURED:
        ends = (pairing.state_a, pairing.state_b)
        capture = run_capture_sync(ends, transport, capture_delay, seed + 1, clock_offsets)
        if capture.skew is not None and duration > 0:
            ends = (capture.state_a, capture.state_b)
            frames = run_frame_sync(ends, transport, duration, seed + 2, clock_offsets)
    return SessionRun(pairing, capture, frames)
