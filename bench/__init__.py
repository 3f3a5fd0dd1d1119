"""The repository benchmark: four user-path workloads, ten end-to-end
metrics and a traced per-layer split. See ``bench/README.md``."""
