"""Pairing and capture-sync state machines over a simulated lossy link.

Two endpoints (an initiator and a responder) pair, exchange capability
sets, agree on a shared capture profile, start capturing at a shared
future local timestamp, and emit frame ticks at the negotiated fps.  The
state machines are pure: `step(state, event, local_now)` returns the next
state plus outbound messages and never touches a clock, socket, or RNG.
The state says which sent messages still wait for an answer (`unacked`);
scheduling, transport loss/jitter, and when to resend live in the Simulator.

Transition table (source of truth; anything not listed fails the session)
==========================================================================
Initiator:
  (Idle,        timer start)       -> Pairing      send PairRequest
  (Pairing,     PairAccept)        -> Negotiating
  (Pairing,     CapabilityOffer)   -> Configured   send CapabilityAck   [accept+offer reordered]
  (Negotiating, CapabilityOffer)   -> Configured   send CapabilityAck
  (Configured,  CapabilityOffer)   -> Configured   resend CapabilityAck [duplicate offer]
  (Configured,  PairAccept)        -> Configured                        [stale duplicate]
  (Configured,  timer propose(d))  -> Configured   send CaptureStart(local_now + d)
Responder:
  (Idle,        timer start)       -> Pairing
  (Pairing,     PairRequest)       -> Negotiating  send PairAccept, CapabilityOffer
  (Negotiating, PairRequest)       -> Negotiating  resend both          [duplicate request]
  (Negotiating, CapabilityAck)     -> Configured   adopt profile (bounded by own caps)
  (Configured,  CapabilityAck)     -> Configured                        [duplicate ack]
Either role:
  (Configured,  CaptureStart s)    -> Configured   record s; Failed + Error if s <= local_now
  (Configured,  timer capture_begin)-> Capturing
  (Capturing,   timer tick_due)    -> Capturing    apply due directives, send FrameTick(seq, ts)
  (Capturing,   FrameTick)         -> Capturing    Failed on cadence mismatch
  (Configured | Capturing, FocusSet / ModeSet / timer send_directive)
                                   -> same phase   stage directive until its effective seq
  (Capturing,   timer capture_end) -> Done
  (any,         Error)             -> Failed
  (any,         timer give_up)     -> Failed       retry budget exhausted
  (any,         timer abort)       -> Failed       peer failed; forced symmetric outcome
  (Configured,  PairRequest)       -> Failed       send Error "unexpected PairRequest"
  (Failed,      anything)          -> Failed       terminal states absorb
  (Done,        anything but abort)-> Done

Retransmission: `SessionState.unacked` holds the messages an endpoint
still waits to have answered.  The initiator's start sets it to its
PairRequest, answered by PairAccept or CapabilityOffer; the responder's
PairRequest handler sets it to PairAccept + CapabilityOffer, answered by
CapabilityAck; failing empties it.  While it is non-empty the Simulator
resends exactly those messages up to RETRY_BUDGET times, with doubling
timeouts starting at RETRY_FACTOR x base_latency (x 1 ms at zero latency);
exhausting the budget fails the session and the simulator then forces the
peer to Failed as well.  CaptureStart, FocusSet and ModeSet are sent once,
so a lost CaptureStart leaves one end Configured while the other captures.

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
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, NamedTuple

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
    FOCUS_SET = "focus_set"
    FRAME_TICK = "frame_tick"
    MODE_SET = "mode_set"
    ERROR = "error"


@dataclass(frozen=True)
class FocusDirective:
    mode: str
    depth: float
    effective_seq: int


@dataclass(frozen=True)
class ModeDirective:
    mode: str
    effective_seq: int


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
    focus_mode: str | None = None
    focus_depth: float | None = None
    capture_mode: str | None = None
    pending_focus: FocusDirective | None = None
    pending_mode: ModeDirective | None = None
    fail_reason: str | None = None
    unacked: tuple[Message, ...] = ()  # sent, resent until the peer answers


def new_session(endpoint_id: str, role: str, spec: DeviceSpec) -> SessionState:
    if role not in ("initiator", "responder"):
        raise ValueError(f"role must be initiator or responder, got {role!r}")
    return SessionState(endpoint_id=endpoint_id, role=role, spec=spec)


def _fail(
    state: SessionState, reason: str, emit: bool = False
) -> tuple[SessionState, list[Message]]:
    out = [Message(MsgKind.ERROR, state.endpoint_id, reason)] if emit else []
    return replace(state, phase=Phase.FAILED, fail_reason=reason, unacked=()), out


def _profile_within(profile: CapabilityProfile, spec: DeviceSpec) -> bool:
    # the adopted profile must not ask this device for more than its maxima
    own_fps = max(spec.frame_rates)
    own_px = max(w * h for w, h in spec.resolutions)
    return profile.frame_rate <= own_fps and profile.resolution[0] * profile.resolution[1] <= own_px


def _apply_due_directives(state: SessionState) -> SessionState:
    if state.pending_focus and state.pending_focus.effective_seq <= state.next_tick_seq:
        state = replace(
            state,
            focus_mode=state.pending_focus.mode,
            focus_depth=state.pending_focus.depth,
            pending_focus=None,
        )
    if state.pending_mode and state.pending_mode.effective_seq <= state.next_tick_seq:
        state = replace(state, capture_mode=state.pending_mode.mode, pending_mode=None)
    return state


def _stage_directive(
    state: SessionState, directive: FocusDirective | ModeDirective
) -> SessionState:
    if isinstance(directive, FocusDirective):
        state = replace(state, pending_focus=directive)
    else:
        state = replace(state, pending_mode=directive)
    return _apply_due_directives(state)


def _on_timer(
    state: SessionState, timer: Timer, now: float
) -> tuple[SessionState, list[Message]]:
    me = state.endpoint_id
    kind = timer.kind
    if kind == "abort":
        return _fail(state, "aborted: peer failure")
    if kind == "give_up":
        return _fail(state, "timeout: retry budget exhausted")

    if kind == "start":
        if state.phase is not Phase.IDLE:
            return _fail(state, f"unexpected start in {state.phase.value}")
        if state.role == "initiator":
            request = (Message(MsgKind.PAIR_REQUEST, me),)
            return replace(state, phase=Phase.PAIRING, unacked=request), list(request)
        return replace(state, phase=Phase.PAIRING), []

    if kind == "propose_capture":
        if state.role != "initiator" or state.phase is not Phase.CONFIGURED:
            return _fail(state, f"unexpected propose_capture in {state.phase.value}")
        start = now + float(timer.payload)
        return replace(state, capture_start=start), [Message(MsgKind.CAPTURE_START, me, start)]

    if kind == "capture_begin":
        if state.phase is not Phase.CONFIGURED or state.capture_start is None:
            return state, []
        return replace(state, phase=Phase.CAPTURING), []

    if kind == "tick_due":
        if state.phase is not Phase.CAPTURING:
            return state, []
        state = _apply_due_directives(state)
        period = 1000.0 / state.negotiated.frame_rate
        seq = state.next_tick_seq
        ts = state.capture_start + seq * period
        msg = Message(MsgKind.FRAME_TICK, me, TickStamp(seq, ts))
        return replace(state, next_tick_seq=seq + 1), [msg]

    if kind == "capture_end":
        if state.phase is not Phase.CAPTURING:
            return state, []
        return replace(state, phase=Phase.DONE), []

    if kind == "send_directive":
        if state.phase not in (Phase.CONFIGURED, Phase.CAPTURING):
            return _fail(state, f"unexpected send_directive in {state.phase.value}")
        directive = timer.payload
        mk = MsgKind.FOCUS_SET if isinstance(directive, FocusDirective) else MsgKind.MODE_SET
        return _stage_directive(state, directive), [Message(mk, me, directive)]

    return _fail(state, f"unknown timer {kind!r}")


def _on_message(
    state: SessionState, msg: Message, now: float
) -> tuple[SessionState, list[Message]]:
    me = state.endpoint_id
    kind = msg.kind
    phase = state.phase

    if kind is MsgKind.ERROR:
        return _fail(state, f"peer error: {msg.payload}")

    if kind is MsgKind.PAIR_REQUEST:
        if state.role == "responder" and phase in (Phase.PAIRING, Phase.NEGOTIATING):
            replies = (
                Message(MsgKind.PAIR_ACCEPT, me),
                Message(MsgKind.CAPABILITY_OFFER, me, state.spec),
            )
            return replace(state, phase=Phase.NEGOTIATING, unacked=replies), list(replies)
        return _fail(state, f"unexpected PairRequest in {phase.value}", emit=True)

    if kind is MsgKind.PAIR_ACCEPT:
        if state.role == "initiator":
            if phase is Phase.PAIRING:
                return replace(state, phase=Phase.NEGOTIATING, unacked=()), []
            if phase in (Phase.NEGOTIATING, Phase.CONFIGURED):
                return state, []  # duplicate / reordered
        return _fail(state, f"unexpected PairAccept in {phase.value}", emit=True)

    if kind is MsgKind.CAPABILITY_OFFER:
        if state.role == "initiator":
            if phase in (Phase.PAIRING, Phase.NEGOTIATING):
                profile = negotiate(state.spec, msg.payload)
                return (
                    replace(state, phase=Phase.CONFIGURED, negotiated=profile, unacked=()),
                    [Message(MsgKind.CAPABILITY_ACK, me, profile)],
                )
            if phase is Phase.CONFIGURED:
                return state, [Message(MsgKind.CAPABILITY_ACK, me, state.negotiated)]
        return _fail(state, f"unexpected CapabilityOffer in {phase.value}", emit=True)

    if kind is MsgKind.CAPABILITY_ACK:
        if state.role == "responder":
            if phase is Phase.NEGOTIATING:
                profile = msg.payload
                if not _profile_within(profile, state.spec):
                    return _fail(state, "negotiated profile exceeds own capabilities", emit=True)
                return (
                    replace(state, phase=Phase.CONFIGURED, negotiated=profile, unacked=()),
                    [],
                )
            if phase is Phase.CONFIGURED:
                return state, []  # duplicate ack
        return _fail(state, f"unexpected CapabilityAck in {phase.value}", emit=True)

    if kind is MsgKind.CAPTURE_START:
        if phase is Phase.CONFIGURED:
            start = float(msg.payload)
            if start <= now:
                return _fail(state, "start time in past", emit=True)
            return replace(state, capture_start=start), []
        return _fail(state, f"unexpected CaptureStart in {phase.value}", emit=True)

    if kind in (MsgKind.FOCUS_SET, MsgKind.MODE_SET):
        if phase in (Phase.CONFIGURED, Phase.CAPTURING):
            return _stage_directive(state, msg.payload), []
        return _fail(state, f"unexpected {kind.value} in {phase.value}", emit=True)

    if kind is MsgKind.FRAME_TICK:
        if phase is Phase.CAPTURING:
            tick: TickStamp = msg.payload
            period = 1000.0 / state.negotiated.frame_rate
            expected = state.capture_start + tick.seq * period
            if abs(tick.timestamp - expected) > _CADENCE_TOL_MS:
                return _fail(
                    state,
                    f"frame cadence mismatch at seq {tick.seq}: "
                    f"got {tick.timestamp:.6f}, expected {expected:.6f}",
                    emit=True,
                )
            return state, []
        if phase in (Phase.DONE, Phase.CONFIGURED):
            return state, []  # late or early tick around the capture window
        return _fail(state, f"unexpected FrameTick in {phase.value}", emit=True)

    return _fail(state, f"unknown message kind {kind!r}", emit=True)


def step(
    state: SessionState, event: Message | Timer, local_now: float = 0.0
) -> tuple[SessionState, list[Message]]:
    """Pure protocol transition; see the module docstring for the table."""
    if state.phase is Phase.FAILED:
        return state, []
    if state.phase is Phase.DONE and not (
        isinstance(event, Timer) and event.kind == "abort"
    ):
        return state, []
    if isinstance(event, Timer):
        return _on_timer(state, event, local_now)
    if isinstance(event, Message):
        return _on_message(state, event, local_now)
    raise TypeError(f"event must be Message or Timer, got {type(event).__name__}")


# --------------------------------------------------------------------------
# simulator


@dataclass(frozen=True)
class SimulatedTransport:
    base_latency: float = 10.0
    jitter: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self):
        if not (0 <= self.base_latency < math.inf and 0 <= self.jitter < math.inf):
            raise ValueError(
                f"latency and jitter must be finite and non-negative, "
                f"got {self.base_latency} and {self.jitter}"
            )
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")


@dataclass(frozen=True)
class TranscriptEntry:
    time: float
    who: str  # endpoint id, or "A->B" for wire events
    kind: str  # send | drop | deliver | timer | phase | apply
    detail: str


def _payload_json(msg: Message) -> str:
    k = msg.kind
    if k is MsgKind.CAPABILITY_OFFER:
        obj = {"model": msg.payload.model_id}
    elif k is MsgKind.CAPABILITY_ACK:
        p: CapabilityProfile = msg.payload
        obj = {
            "fps": p.frame_rate,
            "res": f"{p.resolution[0]}x{p.resolution[1]}",
            "focus": sorted(p.focus_modes),
            "capture": sorted(p.capture_modes),
        }
    elif k is MsgKind.CAPTURE_START:
        obj = {"start_ms": round(msg.payload, 3)}
    elif k is MsgKind.FRAME_TICK:
        obj = {"seq": msg.payload.seq, "ts_ms": round(msg.payload.timestamp, 3)}
    elif k is MsgKind.FOCUS_SET:
        d = msg.payload
        obj = {"mode": d.mode, "depth": round(d.depth, 3), "seq": d.effective_seq}
    elif k is MsgKind.MODE_SET:
        obj = {"mode": msg.payload.mode, "seq": msg.payload.effective_seq}
    elif k is MsgKind.ERROR:
        obj = {"reason": msg.payload}
    else:
        obj = {}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def transcript_text(entries: list[TranscriptEntry]) -> str:
    return "".join(
        f"{e.time:10.3f} {e.who:<6} {e.kind:<7} {e.detail}\n" for e in entries
    )


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
        if not all(map(math.isfinite, clock_offsets)):
            raise ValueError(f"clock offsets must be finite, got {clock_offsets}")
        ids = [s.endpoint_id for s in sessions]
        if len(ids) != 2 or ids[0] == ids[1]:
            raise ValueError(f"simulator needs exactly two sessions with distinct ids, got {ids}")
        self.states = dict(zip(ids, sessions))
        ids.sort()
        self.peer = {ids[0]: ids[1], ids[1]: ids[0]}
        self.transport = transport
        self.rng = random.Random(seed)
        self.offsets = dict(zip(self.states, clock_offsets))
        self.retry_delay0 = RETRY_FACTOR * (
            transport.base_latency if transport.base_latency > 0 else 1.0
        )
        self.transcript: list[TranscriptEntry] = []
        self.capture_begin_global: dict[str, float] = {}
        self.sent_ticks: dict[str, list[TickStamp]] = {e: [] for e in ids}
        self.applied: list[tuple[float, str, str, int]] = []
        self._heap: list = []
        self._counter = itertools.count()
        # the armed retransmit timer per endpoint; its payload counts resends
        self._armed: dict[str, Timer | None] = {e: None for e in ids}

    def schedule(self, t_global: float, endpoint: str, event: Message | Timer) -> None:
        heapq.heappush(self._heap, (t_global, next(self._counter), endpoint, event))

    def _log(self, t: float, who: str, kind: str, detail: str) -> None:
        self.transcript.append(TranscriptEntry(round(t, 9), who, kind, detail))

    def _send(self, msg: Message, t_global: float) -> None:
        src = msg.sender
        dst = self.peer[src]
        wire = f"{src}->{dst}"
        detail = f"{msg.kind.value} {_payload_json(msg)}"
        if self.rng.random() < self.transport.loss_rate:
            self._log(t_global, wire, "send", detail)
            self._log(t_global, wire, "drop", detail)
            return
        delay = self.transport.base_latency
        if self.transport.jitter > 0:
            delay += self.rng.uniform(0.0, self.transport.jitter)
        self._log(t_global, wire, "send", detail)
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
                self._log(t_global, endpoint, "timer", f"retransmit attempt {n}")
                self._armed[endpoint] = timer = Timer("retransmit", n)
                self.schedule(t_global + self.retry_delay0 * 2**n, endpoint, timer)
                for msg in old.unacked:
                    self._send(msg, t_global)
                return
            event = Timer("give_up")
        if isinstance(event, Timer):
            self._log(t_global, endpoint, "timer", event.kind)
        else:
            self._log(
                t_global,
                endpoint,
                "deliver",
                f"{event.kind.value} {_payload_json(event)}",
            )

        new, outbound = step(old, event, t_global + self.offsets[endpoint])
        self.states[endpoint] = new

        if new.phase is not old.phase:
            self._log(t_global, endpoint, "phase", f"{old.phase.value}->{new.phase.value}")
            if new.phase is Phase.CAPTURING:
                self.capture_begin_global[endpoint] = t_global
        if (new.focus_mode, new.focus_depth) != (old.focus_mode, old.focus_depth):
            self._log(
                t_global,
                endpoint,
                "apply",
                f"focus mode={new.focus_mode} depth={new.focus_depth} "
                f"next_seq={new.next_tick_seq}",
            )
            self.applied.append((t_global, endpoint, "focus", new.next_tick_seq))
        if new.capture_mode != old.capture_mode:
            self._log(
                t_global,
                endpoint,
                "apply",
                f"capture mode={new.capture_mode} next_seq={new.next_tick_seq}",
            )
            self.applied.append((t_global, endpoint, "mode", new.next_tick_seq))
        if new.capture_start is not None and old.capture_start is None:
            begin_global = new.capture_start - self.offsets[endpoint]
            self.schedule(begin_global, endpoint, Timer("capture_begin"))

        for msg in outbound:
            if msg.kind is MsgKind.FRAME_TICK:
                self.sent_ticks[endpoint].append(msg.payload)
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
        phases = [s.phase for s in self.states.values()]
        if all(p in ok for p in phases):
            return
        for endpoint, state in sorted(self.states.items()):
            if state.phase is not Phase.FAILED:
                self.dispatch(endpoint, Timer("abort"), t)


class PairingRun(NamedTuple):
    state_a: SessionState
    state_b: SessionState
    transcript: list[TranscriptEntry]


class CaptureSyncRun(NamedTuple):
    start_a: float | None
    start_b: float | None
    skew: float | None
    state_a: SessionState
    state_b: SessionState
    transcript: list[TranscriptEntry]


class FrameSyncRun(NamedTuple):
    ticks_a: list[TickStamp]
    ticks_b: list[TickStamp]
    state_a: SessionState
    state_b: SessionState
    transcript: list[TranscriptEntry]
    applied: list[tuple[float, str, str, int]]


def _two(states: dict[str, SessionState]) -> tuple[SessionState, SessionState]:
    (ia, sa), (ib, sb) = sorted(states.items())
    return sa, sb


def check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def run_pairing(
    spec_a: DeviceSpec,
    spec_b: DeviceSpec,
    transport: SimulatedTransport,
    seed: int = 0,
    clock_offsets: tuple[float, float] = (0.0, 0.0),
) -> PairingRun:
    """Drive both sessions from Idle to a shared terminal phase."""
    sessions = (new_session("A", "initiator", spec_a), new_session("B", "responder", spec_b))
    sim = Simulator(sessions, transport, seed, clock_offsets)
    sim.schedule(0.0, "A", Timer("start"))
    sim.schedule(0.0, "B", Timer("start"))
    sim.run()
    sa, sb = _two(sim.states)
    return PairingRun(sa, sb, sim.transcript)


def run_capture_sync(
    sessions: tuple[SessionState, SessionState],
    transport: SimulatedTransport,
    capture_delay: float,
    seed: int = 0,
    clock_offsets: tuple[float, float] = (0.0, 0.0),
) -> CaptureSyncRun:
    """Propose a shared future start time and begin capture on both ends."""
    check_finite("capture delay", capture_delay)
    sa, sb = sessions
    for s in (sa, sb):
        if s.phase is not Phase.CONFIGURED:
            raise ValueError(f"session {s.endpoint_id} is {s.phase.value}, need configured")
    initiator = sa if sa.role == "initiator" else sb
    sim = Simulator(sessions, transport, seed, clock_offsets)
    sim.schedule(0.0, initiator.endpoint_id, Timer("propose_capture", capture_delay))
    sim.run()
    na, nb = _two(sim.states)
    ga = sim.capture_begin_global.get(na.endpoint_id)
    gb = sim.capture_begin_global.get(nb.endpoint_id)
    skew = abs(ga - gb) if ga is not None and gb is not None else None
    return CaptureSyncRun(ga, gb, skew, na, nb, sim.transcript)


def run_frame_sync(
    sessions: tuple[SessionState, SessionState],
    transport: SimulatedTransport,
    duration: float,
    seed: int = 0,
    clock_offsets: tuple[float, float] = (0.0, 0.0),
    directives: tuple[tuple[float, FocusDirective | ModeDirective], ...] = (),
) -> FrameSyncRun:
    """Emit FrameTicks at the negotiated fps for `duration` ms on both ends.

    Sessions must already be Capturing with a capture start recorded (the
    normal path is run_capture_sync first).  `directives` are
    (global_send_time, directive) pairs sent by the initiator mid-capture.
    """
    check_finite("duration", duration)
    sa, sb = sessions
    for s in (sa, sb):
        if s.phase is not Phase.CAPTURING or s.capture_start is None or s.negotiated is None:
            raise ValueError(f"session {s.endpoint_id} is not mid-capture")
    sim = Simulator(sessions, transport, seed, clock_offsets)
    for s in (sa, sb):
        fps = s.negotiated.frame_rate
        period = 1000.0 / fps
        count = math.floor(duration * fps / 1000.0 + 1e-9)
        for k in range(s.next_tick_seq, count):
            local_due = s.capture_start + k * period
            sim.schedule(local_due - sim.offsets[s.endpoint_id], s.endpoint_id, Timer("tick_due"))
        sim.schedule(
            s.capture_start + duration - sim.offsets[s.endpoint_id],
            s.endpoint_id,
            Timer("capture_end"),
        )
    initiator = sa if sa.role == "initiator" else sb
    for when, directive in directives:
        sim.schedule(when, initiator.endpoint_id, Timer("send_directive", directive))
    sim.run()
    na, nb = _two(sim.states)
    return FrameSyncRun(
        sim.sent_ticks[na.endpoint_id],
        sim.sent_ticks[nb.endpoint_id],
        na,
        nb,
        sim.transcript,
        sim.applied,
    )
