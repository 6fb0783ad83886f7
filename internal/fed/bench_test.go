package fed

import (
	"context"
	"fmt"
	"testing"

	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// benchCluster shares caught-up clusters across benchmark iterations.
func benchCluster(b *testing.B, c *chain.Chain, part Partition) *Cluster {
	b.Helper()
	cl := followChain(b, c, part, Options{})
	b.Cleanup(func() { cl.Close() })
	if err := cl.WaitHeight(context.Background(), c.Height()); err != nil {
		b.Fatal(err)
	}
	return cl
}

func benchQuery(b *testing.B, cl *Cluster, q Query) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFedCountFull(b *testing.B) {
	c := testChain(b)
	for _, n := range []int{1, 2, 4, 8} {
		cl := benchCluster(b, c, ByRegion(n))
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchQuery(b, cl, Query{Kind: KindCount, Range: etl.All(), Filter: etl.Filter{Types: []chain.TxnType{chain.TxnPoCReceipt}}})
		})
	}
}

func BenchmarkFedTxnsPage(b *testing.B) {
	c := testChain(b)
	for _, n := range []int{1, 2, 4, 8} {
		cl := benchCluster(b, c, ByHeight(n, c.Height()))
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchQuery(b, cl, Query{Kind: KindTxns, Range: etl.All(), Limit: 100})
		})
	}
}

func BenchmarkFedTopActors(b *testing.B) {
	c := testChain(b)
	for _, n := range []int{1, 2, 4, 8} {
		cl := benchCluster(b, c, ByRegion(n))
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchQuery(b, cl, Query{Kind: KindTopActors, Range: etl.All(), K: 10})
		})
	}
}
