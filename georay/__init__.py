"""georay — a Ray-Data-native geocoding, spatial-join and training-data engine.

Built from scratch with the query/data-processing capabilities of
``SmalsResearch/NominatimWrapper`` (reference at /root/reference, cited by
file:line in docstrings), re-expressed as ``ray.data.Dataset`` pipelines:
``map_batches`` over Arrow batches, stateful components (gazetteer index,
address parser) built once per worker process, explicit partitioning for
the wide ops (tile rollups, kNN joins), and a checkpointed, resumable sink
layout.

Nothing here calls ``ray.init()`` — sessions are owned by the test fixture,
``bench.py`` and CLI drivers only.
"""

__version__ = "0.1.0"
