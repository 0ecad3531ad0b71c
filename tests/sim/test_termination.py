"""Tests for the Dijkstra token-ring termination detector.

The detector is a pure state machine, so we can drive it through
adversarial schedules directly — including the classic trap where a
work message races the token, and the one an unordered wire adds: a
token that overtakes work.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WorkStealingConfig
from repro.errors import TerminationError
from repro.protocol.messages import BLACK, WHITE
from repro.sim.cluster import Cluster
from repro.sim.termination import DijkstraTermination
from repro.uts.params import T3XS


def _walk_token_while_idle(det: DijkstraTermination, start_action):
    """Forward the token through idle ranks until it stops or rank 0
    decides; returns the final action."""
    action = start_action
    hops = 0
    while action.sends:
        hops += 1
        if hops > 10 * det.nranks:
            raise AssertionError("token loops forever")
        action = det.token_arrived(action.send_to, action.send_color, is_idle=True)
    return action


class TestSingleRank:
    def test_immediate_termination(self):
        det = DijkstraTermination(1)
        action = det.rank_idle(0)
        assert action.terminated
        assert det.terminated

    def test_bad_nranks(self):
        with pytest.raises(TerminationError):
            DijkstraTermination(0)


class TestCleanRing:
    def test_all_idle_terminates_in_one_probe(self):
        det = DijkstraTermination(4)
        action = det.rank_idle(0)
        assert action.send_to == 1 and action.send_color == WHITE
        final = _walk_token_while_idle(det, action)
        assert final.terminated

    def test_probe_starts_only_once(self):
        det = DijkstraTermination(4)
        det.rank_idle(0)
        # Rank 0 idling again without holding the token does nothing.
        action = det.rank_idle(0)
        assert not action.sends and not action.terminated

    def test_non_zero_rank_does_not_start(self):
        det = DijkstraTermination(4)
        action = det.rank_idle(2)
        assert not action.sends and not action.terminated


class TestBusyRanksHoldToken:
    def test_token_held_until_idle(self):
        det = DijkstraTermination(3)
        action = det.rank_idle(0)
        # Rank 1 is busy: token parked.
        action = det.token_arrived(1, action.send_color, is_idle=False)
        assert not action.sends
        # When rank 1 finally idles, the token moves on.
        action = det.rank_idle(1)
        assert action.send_to == 2

    def test_second_token_rejected(self):
        det = DijkstraTermination(3)
        action = det.rank_idle(0)
        det.token_arrived(1, action.send_color, is_idle=False)
        with pytest.raises(TerminationError):
            det.token_arrived(1, WHITE, is_idle=False)


class TestBlackening:
    def test_work_sender_blackens_token(self):
        det = DijkstraTermination(3)
        action = det.rank_idle(0)
        det.work_sent(1)  # rank 1 shipped work somewhere
        action = det.token_arrived(1, action.send_color, is_idle=True)
        assert action.send_color == BLACK

    def test_black_token_does_not_terminate(self):
        det = DijkstraTermination(3)
        action = det.rank_idle(0)
        det.work_sent(1)
        action = det.token_arrived(1, action.send_color, is_idle=True)
        action = det.token_arrived(2, action.send_color, is_idle=True)
        # Token returns black: rank 0 must re-probe, not terminate.
        action = det.token_arrived(0, action.send_color, is_idle=True)
        assert not action.terminated
        assert action.send_to == 1 and action.send_color == WHITE

    def test_second_clean_probe_terminates(self):
        det = DijkstraTermination(3)
        action = det.rank_idle(0)
        det.work_sent(1)
        action = _walk_token_while_idle(det, action)  # probe 1 (re-probe inside)
        assert action.terminated  # second probe was clean
        assert det.probes_started == 2

    def test_rank0_work_sent_forces_reprobe(self):
        det = DijkstraTermination(2)
        action = det.rank_idle(0)
        det.work_sent(0)
        action = det.token_arrived(1, action.send_color, is_idle=True)
        action = det.token_arrived(0, action.send_color, is_idle=True)
        # Rank 0 is black: cannot terminate even on a white token.
        assert not action.terminated
        final = _walk_token_while_idle(det, action)
        assert final.terminated


class TestRaceScenario:
    def test_work_racing_token_is_caught(self):
        """Victim sends work 'behind' the token: the probe must fail.

        Schedule: ranks 0..3; probe starts; token passes rank 1 (idle);
        then rank 2 (still busy) sends work to rank 1 and goes idle.
        Rank 1 is active again *behind* the token.  Without blackening,
        rank 0 would wrongly terminate.
        """
        det = DijkstraTermination(4)
        action = det.rank_idle(0)
        action = det.token_arrived(1, action.send_color, is_idle=True)
        det.work_sent(2)  # rank 2 ships a chunk to rank 1 (now active)
        action = det.token_arrived(2, action.send_color, is_idle=True)
        assert action.send_color == BLACK
        action = det.token_arrived(3, action.send_color, is_idle=True)
        action = det.token_arrived(0, action.send_color, is_idle=True)
        assert not action.terminated  # correctly refused

    def test_no_early_termination_while_anyone_busy(self):
        det = DijkstraTermination(3)
        action = det.rank_idle(0)
        action = det.token_arrived(1, action.send_color, is_idle=True)
        # Rank 2 busy: token parks; no termination possible yet.
        action = det.token_arrived(2, action.send_color, is_idle=False)
        assert not action.terminated
        assert not det.terminated


class TestEarlyDeclaration:
    """The wire keeps no order: a token rank 0 sends right after work
    can overtake it, pass the thief while it is idle and come back
    white.  The engine's quiescence check turns that into a failed
    probe."""

    def _overtaken(self, quiescent):
        det = DijkstraTermination(2, quiescent)
        det.work_sent(0)  # a grant to rank 1, still in flight
        action = det.rank_idle(0)  # the first probe bleaches rank 0
        return det, det.token_arrived(1, action.send_color, is_idle=True)

    def test_colours_alone_declare_early(self):
        det, action = self._overtaken(None)
        assert det.token_arrived(0, action.send_color, True).terminated

    def test_a_failed_check_is_a_failed_probe(self):
        busy = [True]
        det, action = self._overtaken(lambda: not busy[0])
        action = det.token_arrived(0, action.send_color, True)
        assert not action.terminated and not det.terminated
        assert (action.send_to, action.send_color) == (1, WHITE)
        assert det.probes_started == 2
        busy[0] = False
        action = det.token_arrived(1, action.send_color, is_idle=True)
        assert det.token_arrived(0, action.send_color, True).terminated

    def test_end_to_end(self):
        # At the parent of this check: "rank 1: Finish while holding
        # work".  Rank 0 bleached right after its last grant; the token
        # overtook the grant on the wire.
        cfg = WorkStealingConfig(
            tree=T3XS, nranks=2, selector="reference",
            steal_policy="frac[0.4]", chunk_size=18, poll_interval=17,
            node_time=3e-8,
        )
        out = Cluster(cfg).run()
        assert out.total_nodes == 4427
        assert out.probes_started > 1


class TestValidation:
    def test_bad_rank(self):
        det = DijkstraTermination(2)
        with pytest.raises(TerminationError):
            det.work_sent(5)
        with pytest.raises(TerminationError):
            det.rank_idle(-1)

    def test_bad_color(self):
        det = DijkstraTermination(2)
        det.rank_idle(0)
        with pytest.raises(TerminationError):
            det.token_arrived(1, 7, is_idle=True)

    def test_after_termination_noop(self):
        det = DijkstraTermination(1)
        det.rank_idle(0)
        action = det.rank_idle(0)
        assert not action.sends and not action.terminated


@given(
    st.integers(min_value=2, max_value=8),
    st.lists(st.integers(min_value=0, max_value=7), max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_eventual_termination_property(nranks, work_senders):
    """However work messages interleave with probes, once everyone is
    permanently idle the ring terminates within a bounded number of
    probes (at most 2 + number of dirty probes)."""
    det = DijkstraTermination(nranks)
    action = det.rank_idle(0)
    senders = [r % nranks for r in work_senders]
    # Interleave work-sent observations with token walking.
    while not det.terminated:
        if senders:
            det.work_sent(senders.pop())
        if action.sends:
            action = det.token_arrived(
                action.send_to, action.send_color, is_idle=True
            )
        elif not action.terminated:
            raise AssertionError("token stalled with everyone idle")
    assert det.terminated
    assert det.probes_started <= 2 + len(work_senders)
