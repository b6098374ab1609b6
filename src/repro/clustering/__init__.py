"""Clustering substrate: k-means, quality indices, GC, sub-clusters, CA."""

from .assignment import AssignmentResult, ColdStartAssigner
from .global_clustering import (
    GlobalClustering,
    GlobalClusteringResult,
    subject_matrix,
)
from .kmeans import (
    KMeans,
    KMeansResult,
    assign_to_centers,
    kmeans_plus_plus_init,
    pairwise_sq_distances,
    reseed_empty_clusters,
)
from .metrics import (
    calinski_harabasz_index,
    cluster_sizes,
    davies_bouldin_index,
    inertia,
    silhouette_score,
)
from .scaling import StandardScaler
from .selection import KSelectionReport, elbow_k, select_k
from .streaming import (
    StreamingKMeans,
    StreamingKMeansResult,
    fit_signature_matrix,
)
from .subclusters import SubClusterModel, build_subclusters

__all__ = [
    "KMeans",
    "KMeansResult",
    "kmeans_plus_plus_init",
    "pairwise_sq_distances",
    "reseed_empty_clusters",
    "assign_to_centers",
    "silhouette_score",
    "davies_bouldin_index",
    "calinski_harabasz_index",
    "inertia",
    "cluster_sizes",
    "StandardScaler",
    "StreamingKMeans",
    "StreamingKMeansResult",
    "fit_signature_matrix",
    "select_k",
    "elbow_k",
    "KSelectionReport",
    "GlobalClustering",
    "GlobalClusteringResult",
    "subject_matrix",
    "SubClusterModel",
    "build_subclusters",
    "ColdStartAssigner",
    "AssignmentResult",
]
