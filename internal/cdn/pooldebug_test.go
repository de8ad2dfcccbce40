//go:build pooldebug

package cdn

import "github.com/meccdn/meccdn/internal/dnswire"

func init() { poolOutstanding = dnswire.PoolOutstanding }
