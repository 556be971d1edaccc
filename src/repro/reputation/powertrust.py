"""PowerTrust (Zhou & Hwang, TPDS 2007), adapted to the shared substrate.

PowerTrust aggregates *local* trust scores through a trust overlay network
and exploits the power-law distribution of feedback: a small set of *power
nodes* (the most reputable, most-assessed peers) is selected dynamically and
given extra weight in the global aggregation, which speeds up convergence and
hardens the system against collusion by low-reputation cliques.

The reproduction follows the published structure:

1. build the trust overlay from the feedback store;
2. compute normalized local trust (as EigenTrust does);
3. run the random-walk aggregation ``t ← (1 − α)·Cᵀ t + α·w`` where ``w`` is
   the *look-ahead* restart distribution concentrated on the current power
   nodes;
4. re-select the ``m`` power nodes from the updated scores and iterate until
   the power-node set stabilizes (or the iteration budget is exhausted).
"""

from __future__ import annotations


from repro._util import require_unit_interval
from repro.core import backend as backend_kernels
from repro.core.backend import VECTORIZED_BACKEND, PeerIndex
from repro.errors import ConfigurationError
from repro.reputation.base import SCORE_DECIMALS, ReputationSystem
from repro.reputation.overlay import TrustOverlayNetwork


def _quantized(trust: dict[str, float]) -> dict[str, float]:
    """Power-node selection input, snapped to the shared score grid.

    Selection sorts by raw trust values; quantizing first keeps the chosen
    power-node set — and hence the whole aggregation — identical across the
    pure-Python and vectorized backends.
    """
    return {peer: round(value, SCORE_DECIMALS) for peer, value in trust.items()}


class PowerTrust(ReputationSystem):
    """Power-node weighted global reputation aggregation."""

    name = "powertrust"
    information_requirement = 0.85

    def __init__(
        self,
        *,
        n_power_nodes: int = 3,
        restart_weight: float = 0.15,
        max_iterations: int = 50,
        power_node_rounds: int = 4,
        tolerance: float = 1e-8,
        default_score: float = 0.5,
        max_evidence_per_subject: int | None = None,
        backend: str = "auto",
    ) -> None:
        super().__init__(
            default_score=default_score,
            max_evidence_per_subject=max_evidence_per_subject,
            backend=backend,
        )
        if n_power_nodes < 1:
            raise ConfigurationError("n_power_nodes must be at least 1")
        if max_iterations < 1 or power_node_rounds < 1:
            raise ConfigurationError("iteration budgets must be at least 1")
        if tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        self.n_power_nodes = int(n_power_nodes)
        self.restart_weight = require_unit_interval(restart_weight, "restart_weight")
        self.max_iterations = int(max_iterations)
        self.power_node_rounds = int(power_node_rounds)
        self.tolerance = float(tolerance)
        # The overlay shares this mechanism's local-trust builder so its
        # in-degree centrality reads the same incrementally maintained pair
        # ledger instead of rescanning the store per refresh.
        self.overlay = TrustOverlayNetwork(self.store, builder=self.local_trust)
        self.power_nodes: list[str] = []

    # -- aggregation helpers -------------------------------------------------

    def _restart_distribution(self, peers: list[str], power_nodes: list[str]) -> dict[str, float]:
        """Look-ahead restart mass, concentrated on the current power nodes."""
        present = [peer for peer in power_nodes if peer in peers]
        if not present:
            uniform = 1.0 / len(peers)
            return {peer: uniform for peer in peers}
        weight = 1.0 / len(present)
        return {peer: (weight if peer in present else 0.0) for peer in peers}

    def _aggregate(
        self,
        peers: list[str],
        local: dict[str, dict[str, float]],
        restart: dict[str, float],
    ) -> dict[str, float]:
        trust = dict(restart)
        dangling = [peer for peer in peers if not local.get(peer)]
        for _ in range(self.max_iterations):
            updated = {peer: 0.0 for peer in peers}
            # As in EigenTrust, dangling mass is tallied once per iteration
            # and redistributed over the restart distribution in one pass.
            dangling_mass = sum(trust[peer] for peer in dangling)
            for rater in peers:
                row = local.get(rater)
                if not row:
                    continue
                mass = trust[rater]
                for subject, weight in row.items():
                    updated[subject] += mass * weight
            if dangling_mass:
                for peer in peers:
                    updated[peer] += dangling_mass * restart[peer]
            blended = {
                peer: (1.0 - self.restart_weight) * updated[peer]
                + self.restart_weight * restart[peer]
                for peer in peers
            }
            delta = sum(abs(blended[peer] - trust[peer]) for peer in peers)
            trust = blended
            if delta < self.tolerance:
                break
        return trust

    # -- scoring ---------------------------------------------------------------

    def compute_scores(self) -> dict[str, float]:
        peers = list(self.store.sorted_participants())
        if not peers:
            return {}
        if self.resolved_backend == VECTORIZED_BACKEND:
            return self._compute_vectorized(peers)
        return self._compute_python(peers)

    def _compute_python(self, peers: list[str]) -> dict[str, float]:
        local = self.local_trust.normalized_local_trust(peers)

        # Bootstrap with a uniform restart, then alternate aggregation and
        # power-node re-selection until the power-node set stabilizes.
        power_nodes: list[str] = list(self.power_nodes)
        trust: dict[str, float] = {}
        for _ in range(self.power_node_rounds):
            restart = self._restart_distribution(peers, power_nodes)
            trust = self._aggregate(peers, local, restart)
            new_power_nodes = self.overlay.select_power_nodes(_quantized(trust), self.n_power_nodes)
            if new_power_nodes == power_nodes:
                break
            power_nodes = new_power_nodes
        self.power_nodes = power_nodes

        return self._rescale(trust)

    def _compute_vectorized(self, peers: list[str]) -> dict[str, float]:
        index = PeerIndex(peers)
        matrix = backend_kernels.local_trust_matrix_from_columns(self.store.columns(), index)

        power_nodes: list[str] = list(self.power_nodes)
        trust_map: dict[str, float] = {}
        trust = None
        for _ in range(self.power_node_rounds):
            restart = index.dict_to_vector(self._restart_distribution(peers, power_nodes))
            trust, _ = backend_kernels.power_iteration(
                matrix,
                restart,
                restart_weight=self.restart_weight,
                max_iterations=self.max_iterations,
                tolerance=self.tolerance,
            )
            trust_map = index.vector_to_dict(trust)
            new_power_nodes = self.overlay.select_power_nodes(
                _quantized(trust_map), self.n_power_nodes
            )
            if new_power_nodes == power_nodes:
                break
            power_nodes = new_power_nodes
        self.power_nodes = power_nodes

        return index.vector_to_dict(backend_kernels.minmax_rescale(trust))

    @staticmethod
    def _rescale(trust: dict[str, float]) -> dict[str, float]:
        return backend_kernels.minmax_rescale_dict(trust)

    def reset(self) -> None:
        """Drop evidence, cached scores *and* the sticky power-node set.

        The power nodes are derived from evidence, so letting them survive
        a reset would warm-start the next aggregation from state the store
        no longer supports.
        """
        super().reset()
        self.power_nodes = []
