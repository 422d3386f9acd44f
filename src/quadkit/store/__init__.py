from .episodes import Episode, EpisodeStore, ShardInfo, Step, StoreError, episode_problems
from .stats import StoreStats, compute_stats, stats_svg, stats_table
from .mixing import MixMode, MixPolicy, mix_stream
from .importer import ImportReport, import_real

__all__ = [
    "Episode",
    "EpisodeStore",
    "ShardInfo",
    "Step",
    "StoreError",
    "episode_problems",
    "StoreStats",
    "compute_stats",
    "stats_svg",
    "stats_table",
    "MixMode",
    "MixPolicy",
    "mix_stream",
    "ImportReport",
    "import_real",
]
