"""Team formation and type-aware scheduling (Section 4.3.2).

SLICC-SW and SLICC-Pp group same-type threads into **teams** so similar
transactions co-schedule and pipeline through the same set of caches.
Scheduling rules reproduced from the paper, with N worker cores:

* team size classes: **large** (>= 1.5N threads, capped at 2N), **medium**
  (0.5N .. 1.5N), **small** (< 0.5N — not grouped; members are *stray*
  threads);
* the oldest team is scheduled first, without preemption; a large team may
  use all cores, a medium team half of them;
* stray threads are scheduled individually to idle cores, possibly in
  parallel with a medium team;
* team threads are injected to start on the same initial core (the
  preamble thread then drags the footprint across the team's cores — this
  is the pipelining of Figure 4, and also why stalled migration hurts
  SLICC-SW in Figure 8's high-dilution regime);
* when a team completes, every agent's MC/MSV/MTQ is reset (the engine
  performs the reset when :meth:`TeamScheduler.thread_completed` says a
  team finished).

The scheduler is engine-agnostic: it hands out ``(thread, core, team)``
dispatch tuples and tracks team membership; queue mechanics stay in
:class:`repro.core.scheduler.ThreadQueues`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.scheduler import ThreadQueues
from repro.errors import SimulationError

#: Teams never exceed 2N threads (the thread-pool window of Section 5.1).
MAX_TEAM_FACTOR = 2.0
LARGE_FACTOR = 1.5
SMALL_FACTOR = 0.5


@dataclass
class Team:
    """One scheduled team of same-type threads."""

    team_id: int
    type_key: int
    members: set[int]
    allowed_cores: frozenset[int]
    remaining: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.remaining:
            self.remaining = set(self.members)


@dataclass(frozen=True)
class Dispatch:
    """Instruction to start one thread on one core."""

    thread_id: int
    core: int
    team_id: Optional[int]


@dataclass
class _Waiting:
    thread_id: int
    type_key: int
    arrival: int


class TeamScheduler:
    """Type-aware team scheduler over a set of worker cores."""

    def __init__(
        self,
        worker_cores: list[int],
        small_threshold: Optional[int] = None,
    ) -> None:
        """Args:
            worker_cores: cores available to teams.
            small_threshold: minimum same-type group size that forms a
                team (smaller groups are strays). Defaults to the paper's
                0.5N; the engine lowers it proportionally for traces with
                few threads per type so the team machinery still engages
                at sub-paper scales (the paper's 1K-task arrival stream
                always accumulates enough same-type threads).
        """
        if not worker_cores:
            raise SimulationError("need at least one worker core")
        self.worker_cores = list(worker_cores)
        self.n = len(worker_cores)
        if small_threshold is None:
            small_threshold = max(2, int(SMALL_FACTOR * self.n))
        self.small_threshold = small_threshold
        self._waiting: list[_Waiting] = []
        self._active: dict[int, Team] = {}
        self._thread_team: dict[int, int] = {}
        self._next_team_id = 0
        self.teams_completed = 0

    # ------------------------------------------------------------------
    # Arrival / completion
    # ------------------------------------------------------------------

    def thread_arrived(self, thread_id: int, type_key: int, arrival: int) -> None:
        """A thread entered the SLICC pool (pool admission is the engine's
        job; this records it as waiting for dispatch)."""
        self._waiting.append(_Waiting(thread_id, type_key, arrival))

    def thread_completed(self, thread_id: int) -> bool:
        """Record a completion. Returns True when this finished a team —
        the engine must then reset all agents (Section 4.3.2)."""
        team_id = self._thread_team.pop(thread_id, None)
        if team_id is None:
            return False
        team = self._active[team_id]
        team.remaining.discard(thread_id)
        if team.remaining:
            return False
        del self._active[team_id]
        self.teams_completed += 1
        return True

    def allowed_cores(self, thread_id: int) -> Optional[frozenset[int]]:
        """Cores the thread may run on / migrate to (None = unrestricted).

        Stray threads and threads of completed teams are unrestricted.
        """
        team_id = self._thread_team.get(thread_id)
        if team_id is None or team_id not in self._active:
            return None
        return self._active[team_id].allowed_cores

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _free_cores(self) -> list[int]:
        """Worker cores not reserved by an active team."""
        reserved: set[int] = set()
        for team in self._active.values():
            reserved |= team.allowed_cores
        return [c for c in self.worker_cores if c not in reserved]

    def _oldest_groups(self) -> list[tuple[int, list[_Waiting]]]:
        """Waiting threads grouped by type, oldest group first."""
        groups: dict[int, list[_Waiting]] = {}
        for w in self._waiting:
            groups.setdefault(w.type_key, []).append(w)
        return sorted(
            groups.items(), key=lambda item: min(w.arrival for w in item[1])
        )

    def dispatch(
        self, queues: ThreadQueues, idle_cores: Optional[list[int]] = None
    ) -> list[Dispatch]:
        """Form and place teams/strays given current queue state.

        Returns dispatch tuples; the engine enqueues each thread on its
        core. Called whenever cores run dry.

        Args:
            queues: current queue depths (for least-congested placement).
            idle_cores: cores with nothing running *and* nothing queued —
                strays and team start-cores prefer these, since queue
                depth alone cannot see running threads.
        """
        out: list[Dispatch] = []
        idle = list(idle_cores) if idle_cores else []
        free = self._free_cores()
        max_team = int(MAX_TEAM_FACTOR * self.n)

        # Absorption: a waiting thread whose type already has an active,
        # not-yet-full team joins it immediately — this is how the paper's
        # continuous arrival stream keeps the stray fraction low (3% for
        # TPC-E) even though any 2N-thread window holds few of each type.
        active_by_type = {t.type_key: t for t in self._active.values()}
        for w in list(self._waiting):
            team = active_by_type.get(w.type_key)
            if team is None or len(team.members) >= max_team:
                continue
            team.members.add(w.thread_id)
            team.remaining.add(w.thread_id)
            self._thread_team[w.thread_id] = team.team_id
            core = queues.least_congested(allowed=team.allowed_cores)
            out.append(Dispatch(w.thread_id, core, team.team_id))
            self._waiting.remove(w)

        groups = self._oldest_groups()
        team_groups = [
            g for g in groups if min(len(g[1]), max_team) >= self.small_threshold
        ]
        for type_key, group in groups:
            if not free:
                break
            if type_key in active_by_type:
                # Leftovers beyond a full active team wait for it to end.
                continue
            size = min(len(group), max_team)
            if size < self.small_threshold:
                continue  # small group: handled as strays below
            members = group[:size]
            if size >= LARGE_FACTOR * self.n or (
                len(team_groups) == 1 and not self._active
            ):
                # Large team — or the only runnable team with nothing to
                # time-multiplex against (keeping half the cores idle would
                # fight the paper's stated goal of maximising utilisation):
                # all currently free cores.
                cores = list(free)
            else:
                # Medium team: at most half the worker cores (the paper's
                # cap), scaled down for small teams so several can
                # co-schedule — enough caches for a pipeline, no more.
                want = min(max(1, self.n // 2), max(4, (size + 1) // 2))
                cores = free[:want]
            team = Team(
                team_id=self._next_team_id,
                type_key=type_key,
                members={w.thread_id for w in members},
                allowed_cores=frozenset(cores),
            )
            self._next_team_id += 1
            self._active[team.team_id] = team
            # Inject team threads round-robin over the team's cores. (The
            # paper injects them on a single initial core and lets
            # migration drain the queue outward; that serialises workloads
            # that never migrate — e.g. MapReduce, whose footprint fits in
            # one L1-I — so we spread at injection and let segment-match
            # migrations pull threads together. Deviation documented in
            # DESIGN.md, "Modelling substitutions".)
            idle_in_team = [c for c in cores if c in idle]
            spread = idle_in_team if idle_in_team else list(cores)
            for slot, w in enumerate(members):
                start_core = spread[slot % len(spread)]
                self._thread_team[w.thread_id] = team.team_id
                out.append(Dispatch(w.thread_id, start_core, team.team_id))
                self._waiting.remove(w)
            free = [c for c in free if c not in team.allowed_cores]

        # Strays: dispatched individually, but *only to idle cores* —
        # a waiting thread is more valuable in the pool (where its type
        # group can grow into a team) than queued behind a busy core.
        # Oldest waiting threads go first so nothing starves: whenever a
        # core idles with no team work available, a stray fills it.
        still_free = self._free_cores()
        idle_free = [c for c in idle if c in still_free]
        for w in list(self._waiting):
            if not idle_free:
                break
            core = idle_free.pop(0)
            out.append(Dispatch(w.thread_id, core, None))
            self._waiting.remove(w)
        return out

    @property
    def waiting_count(self) -> int:
        """Threads admitted but not yet dispatched."""
        return len(self._waiting)

    @property
    def active_team_count(self) -> int:
        """Teams currently holding cores."""
        return len(self._active)
