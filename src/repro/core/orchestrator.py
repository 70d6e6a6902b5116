"""Resource Orchestrator (§3.4, Algorithm 2).

Assigns each queued job a priority value — estimated duration times GPU
demand — sorts the queue ascending, and walks it: if sharing is currently
allowed the Binder proposes an affine running mate (shared placement on
the mate's exact GPU set); otherwise, and as fallback, the job is placed
exclusively with consolidated best-fit inside its VC.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.placement import find_consolidated, find_relaxed
from repro.obs.audit import DecisionAudit, PlacementDecision
from repro.workloads.job import Job


class ResourceOrchestrator:
    """Priority-ordered allocator over exclusive and shared placements."""

    #: A queued job that has waited longer than this reserves its VC.
    DEFAULT_STARVATION_THRESHOLD = 8 * 3600.0

    def __init__(self, starvation_threshold: float =
                 DEFAULT_STARVATION_THRESHOLD,
                 place_exclusive: Optional[Callable] = None) -> None:
        if starvation_threshold <= 0:
            raise ValueError("starvation_threshold must be positive")
        self.starvation_threshold = starvation_threshold
        #: Optional override of the exclusive-placement policy with
        #: signature ``(engine, job) -> Optional[List[GPU]]``; used by the
        #: heterogeneous-GPU extension to rank generations.
        self.place_exclusive = place_exclusive

    def schedule(self, engine, queue: List[Job],
                 priority_fn: Callable[[Job], float],
                 find_mate: Callable[[Job], Optional[Job]],
                 sharing_mode: str = "eager",
                 now: float = 0.0,
                 audit: Optional[DecisionAudit] = None) -> List[Job]:
        """Place as many queued jobs as possible; returns the placed jobs.

        The caller removes placed jobs from its queue.  Jobs that fit
        neither shared nor exclusive are skipped (no head-of-line
        blocking), which is the greedy loop of Algorithm 2 — with one
        starvation guard: a *multi-node* job that has waited past
        ``starvation_threshold`` relaxes its consolidation requirement and
        accepts fragmented free GPUs across extra nodes (paying the
        engine's cross-node communication penalty).  Without the relief,
        multi-node jobs can wait indefinitely for wholly free nodes while
        small-job backfill keeps every node partially busy (the
        tail-fairness property of §4.3 / Table 5).

        ``sharing_mode`` is the Dynamic Strategy's aggressiveness:

        * ``"eager"`` — Algorithm 2 order: affine jobpair first, exclusive
          placement as fallback (Default mode, contended cluster).
        * ``"fallback"`` — exclusive placement first, packing only when the
          VC has no free consolidated slot (Apathetic mode).
        * ``"off"`` — exclusive only (sharing disabled).

        When ``audit`` is given, every placement leaves a
        :class:`~repro.obs.audit.PlacementDecision` carrying its inputs
        (priority, duration estimate, sharing mode, starvation trigger,
        binder verdict) so the allocation is explainable post-hoc.
        """
        if sharing_mode not in ("eager", "fallback", "off"):
            raise ValueError(f"bad sharing_mode {sharing_mode!r}")
        node_gpus = engine.cluster.gpus_per_node

        def starving(job: Job) -> bool:
            return (job.gpu_num > node_gpus
                    and now - job.submit_time > self.starvation_threshold)

        for job in queue:
            job.priority = priority_fn(job)
        # Starving multi-node jobs jump to the front of the pass so they
        # get first pick of free GPUs (otherwise small jobs drain the free
        # pool before the walk ever reaches them).
        ordered = sorted(queue,
                         key=lambda j: (not starving(j), j.priority,
                                        j.submit_time, j.job_id))
        def record(job: Job, mode: str, mate: Optional[Job],
                   relieved: bool) -> None:
            if audit is None:
                return
            gpus = engine.gpus_of(job)
            audit.record(PlacementDecision(
                time=now, job_id=job.job_id, mode=mode,
                gpu_ids=tuple(g.gpu_id for g in gpus),
                node_ids=tuple(g.node_id for g in gpus),
                priority=job.priority,
                estimated_duration=job.estimated_duration,
                sharing_mode=sharing_mode,
                mate_id=mate.job_id if mate is not None else None,
                starving=relieved,
                binder=audit.take_binder(job.job_id),
                attribution=audit.attribution_for(job)))

        # Within a pass free GPUs only shrink, so once a (VC, GPU count)
        # found no consolidated room at some memory need, every later job
        # of that shape needing at least as much finds none either.
        no_room: Dict[Tuple[str, int], float] = {}
        placed: List[Job] = []
        for job in ordered:
            if sharing_mode == "eager":
                mate = find_mate(job)
                if mate is not None:
                    engine.start_job(job, engine.gpus_of(mate))
                    placed.append(job)
                    record(job, "shared", mate, starving(job))
                    continue
            if self.place_exclusive is not None:
                gpus = self.place_exclusive(engine, job)
            else:
                gpus = None
                shape = (job.vc, job.gpu_num)
                need = job.profile.gpu_mem_mb
                if need < no_room.get(shape, math.inf):
                    gpus = find_consolidated(engine.cluster, job.gpu_num,
                                             vc=job.vc, min_memory_mb=need)
                    if gpus is None:
                        no_room[shape] = need
            relaxed = False
            if gpus is None and starving(job):
                # Starvation relief: relaxed (fragmented) placement.
                gpus = find_relaxed(engine.cluster, job.gpu_num, vc=job.vc,
                                    min_memory_mb=job.profile.gpu_mem_mb)
                relaxed = gpus is not None
            if gpus is not None:
                engine.start_job(job, gpus)
                placed.append(job)
                record(job, "relaxed" if relaxed else "exclusive", None,
                       relaxed)
                continue
            if sharing_mode == "fallback":
                mate = find_mate(job)
                if mate is not None:
                    engine.start_job(job, engine.gpus_of(mate))
                    placed.append(job)
                    record(job, "shared-fallback", mate, starving(job))
        return placed
