package quality

import (
	"math"
	"sort"
)

// Clustering is an assignment of points to clusters: Assign[i] is the
// cluster id of point i, and Points[i] is the point itself (any
// dimensionality, but all points must share one).
type Clustering struct {
	Points [][]float64
	Assign []int
}

func euclid(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// DaviesBouldin returns the Davies-Bouldin index of the clustering: the
// average, over clusters, of the worst-case ratio of intra-cluster scatter
// to inter-centroid separation. Lower is better. Singleton and empty
// clusterings return 0. It is the streamcluster metric (via the difference
// of two indices, see DaviesBouldinDiff).
func DaviesBouldin(c Clustering) float64 {
	ids := map[int][]int{}
	for i, a := range c.Assign {
		ids[a] = append(ids[a], i)
	}
	if len(ids) < 2 {
		return 0
	}
	// Centroids and scatters, visiting clusters in sorted-id order so the
	// floating-point accumulation (and hence the index) is deterministic.
	order := make([]int, 0, len(ids))
	for id := range ids {
		order = append(order, id)
	}
	sort.Ints(order)
	type cluster struct {
		centroid []float64
		scatter  float64
	}
	var clusters []cluster
	for _, id := range order {
		members := ids[id]
		dim := len(c.Points[members[0]])
		centroid := make([]float64, dim)
		for _, m := range members {
			for d := 0; d < dim; d++ {
				centroid[d] += c.Points[m][d]
			}
		}
		for d := range centroid {
			centroid[d] /= float64(len(members))
		}
		scatter := 0.0
		for _, m := range members {
			scatter += euclid(c.Points[m], centroid)
		}
		scatter /= float64(len(members))
		clusters = append(clusters, cluster{centroid, scatter})
	}
	// DB index.
	sum := 0.0
	for i := range clusters {
		worst := 0.0
		for j := range clusters {
			if i == j {
				continue
			}
			sep := euclid(clusters[i].centroid, clusters[j].centroid)
			if sep == 0 {
				continue
			}
			r := (clusters[i].scatter + clusters[j].scatter) / sep
			if r > worst {
				worst = r
			}
		}
		sum += worst
	}
	return sum / float64(len(clusters))
}

// DaviesBouldinDiff returns |DB(got) - DB(want)|, the streamcluster output
// metric.
func DaviesBouldinDiff(got, want Clustering) float64 {
	return math.Abs(DaviesBouldin(got) - DaviesBouldin(want))
}

// BCubed returns the B³ F-score of a predicted assignment against a gold
// assignment over the same points: the harmonic mean of B³ precision and
// recall, each averaged per element. 1 means a perfect match. It is the
// streamclassifier metric: two results differ by the gap between their scores.
func BCubed(pred, gold []int) float64 {
	n := len(pred)
	if len(gold) < n {
		n = len(gold)
	}
	if n == 0 {
		return 1
	}
	var precSum, recSum float64
	for i := 0; i < n; i++ {
		var samePred, sameGold, sameBoth float64
		for j := 0; j < n; j++ {
			p := pred[i] == pred[j]
			g := gold[i] == gold[j]
			if p {
				samePred++
			}
			if g {
				sameGold++
			}
			if p && g {
				sameBoth++
			}
		}
		precSum += sameBoth / samePred
		recSum += sameBoth / sameGold
	}
	prec := precSum / float64(n)
	rec := recSum / float64(n)
	if prec+rec == 0 {
		return 0
	}
	return 2 * prec * rec / (prec + rec)
}
