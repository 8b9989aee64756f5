"""``repro.sketch`` — what is left of the removed approximate tier.

No command, config or runtime path reaches an approximate join any
more (DESIGN §15; the measured verdict is in EXPERIMENTS.md). Two
modules stay, cut down to what the end-to-end benchmark's ``sketch``
layer calls: :class:`repro.sketch.minhash.MinHashScheme` and the
unbanded :class:`repro.sketch.engine.SketchStreamingSetJoin`, which
keep recording the negative result as ``sketch.speedup_vs_core``. The
benchmark change that drops that layer deletes this package. No
``repro`` module outside it imports it.
"""
